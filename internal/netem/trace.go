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
	TraceDrop                      // refused by a port: queue or impairment
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

// InstrumentPorts makes the tracer a tap on every given port, so it observes
// all enqueues, drops and trims where Port.Send decides them. A port that
// already has a tap keeps it, and the new tracer sees each event after it.
func InstrumentPorts(ports []*Port, tr Tracer) {
	for _, pt := range ports {
		pt.Tap = tee(pt.Tap, tr)
	}
}

// InstrumentHosts makes the tracer a tap on every given host, so it observes
// packet deliveries, labelled "host<ID>"; taps chain as in InstrumentPorts.
func InstrumentHosts(hosts []*Host, tr Tracer) {
	for _, h := range hosts {
		h.Tap = tee(h.Tap, tr)
		h.label = fmt.Sprintf("host%d", h.ID)
	}
}

// tee returns tr when no tap is set yet, otherwise a tracer that forwards
// each event to the existing tap and then to tr.
func tee(tap, tr Tracer) Tracer {
	if tap == nil {
		return tr
	}
	return TraceFunc(func(now sim.Time, ev TraceEvent, where string, p *Packet) {
		tap.Trace(now, ev, where, p)
		tr.Trace(now, ev, where, p)
	})
}
