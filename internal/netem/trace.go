package netem

import (
	"fmt"
	"io"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// TraceEvent is one observable packet event.
type TraceEvent uint8

// Trace event kinds.
const (
	TraceEnqueue TraceEvent = iota // accepted into a port queue
	TraceDrop                      // discarded by a port queue
	TraceTrim                      // payload cut by an NDP queue
	TraceDeliver                   // handed to a host endpoint
)

var traceEventNames = [...]string{"ENQ", "DROP", "TRIM", "DELIVER"}

// String names the event.
func (e TraceEvent) String() string {
	if int(e) < len(traceEventNames) {
		return traceEventNames[e]
	}
	return "?"
}

// Tracer receives packet events from instrumented ports and hosts. Keep
// implementations cheap: the hot path calls them per packet.
type Tracer interface {
	Trace(now sim.Time, ev TraceEvent, where string, p *Packet)
}

// TraceFunc adapts a function to the Tracer interface.
type TraceFunc func(now sim.Time, ev TraceEvent, where string, p *Packet)

// Trace implements Tracer.
func (f TraceFunc) Trace(now sim.Time, ev TraceEvent, where string, p *Packet) { f(now, ev, where, p) }

// WriterTracer formats events as one line each, suitable for debugging and
// for diffing deterministic runs. Filter, when non-nil, limits output to
// packets it returns true for.
type WriterTracer struct {
	W      io.Writer
	Filter func(p *Packet) bool
	Events uint64
}

// Trace implements Tracer.
func (t *WriterTracer) Trace(now sim.Time, ev TraceEvent, where string, p *Packet) {
	if t.Filter != nil && !t.Filter(p) {
		return
	}
	t.Events++
	fmt.Fprintf(t.W, "%-14v %-7s %-18s %v\n", now, ev, where, p)
}

// CountingTracer tallies events by kind and packet type; a cheap way to
// assert aggregate behaviour in tests.
type CountingTracer struct {
	Counts map[TraceEvent]map[PacketType]uint64
}

// NewCountingTracer returns an empty counter.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[TraceEvent]map[PacketType]uint64)}
}

// Trace implements Tracer.
func (t *CountingTracer) Trace(_ sim.Time, ev TraceEvent, _ string, p *Packet) {
	m := t.Counts[ev]
	if m == nil {
		m = make(map[PacketType]uint64)
		t.Counts[ev] = m
	}
	m[p.Type]++
}

// Total returns the count for one event/type pair.
func (t *CountingTracer) Total(ev TraceEvent, typ PacketType) uint64 {
	return t.Counts[ev][typ]
}

// tracedQdisc wraps a discipline with enqueue/drop/trim tracing.
type tracedQdisc struct {
	Qdisc
	tracer Tracer
	where  string
}

// Enqueue implements Qdisc. A refusal is traced as a drop; Port.Send then
// counts it and releases the packet.
func (q *tracedQdisc) Enqueue(p *Packet, now sim.Time) DropReason {
	wasTrimmed := p.Trimmed
	r := q.Qdisc.Enqueue(p, now)
	switch {
	case r != Queued:
		q.tracer.Trace(now, TraceDrop, q.where, p)
	case !wasTrimmed && p.Trimmed:
		q.tracer.Trace(now, TraceTrim, q.where, p)
	default:
		q.tracer.Trace(now, TraceEnqueue, q.where, p)
	}
	return r
}

// InstrumentPorts wraps every given port's qdisc so the tracer observes all
// enqueues, drops and trims. Call before traffic starts.
func InstrumentPorts(ports []*Port, tr Tracer) {
	for _, pt := range ports {
		pt.Q = &tracedQdisc{Qdisc: pt.Q, tracer: tr, where: pt.Label}
	}
}

// InstrumentHosts wraps every host endpoint so the tracer observes packet
// deliveries. Call after the protocol has attached its endpoints.
func InstrumentHosts(hosts []*Host, tr Tracer) {
	for _, h := range hosts {
		h.EP = &tracedEndpoint{inner: h.EP, tracer: tr, host: h}
	}
}

type tracedEndpoint struct {
	inner  Endpoint
	tracer Tracer
	host   *Host
}

// Receive implements Endpoint.
func (t *tracedEndpoint) Receive(p *Packet) {
	t.tracer.Trace(t.host.Eng.Now(), TraceDeliver, fmt.Sprintf("host%d", t.host.ID), p)
	if t.inner != nil {
		t.inner.Receive(p)
	}
}
