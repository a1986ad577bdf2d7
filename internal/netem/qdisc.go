package netem

import (
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// DropReason classifies why a queueing discipline refused a packet.
type DropReason uint8

// Drop reasons.
const (
	DropTailFull   DropReason = iota // buffer exhausted
	DropSelective                    // Aeolus selective dropping (unscheduled over threshold)
	DropCreditOver                   // ExpressPass credit queue overflow
	DropTrimFail                     // NDP control queue full, trimmed header lost
	DropImpairment                   // injected by the link-impairment layer (loss, blackhole, failed link)

	numDropReasons // sentinel: must stay last among the reasons

	// Queued is what Enqueue returns for a packet it accepted. It is not a
	// reason: no counter is indexed by it.
	Queued = numDropReasons
)

// NumDropReasons is the number of distinct DropReason values; every
// by-reason counter array is sized from it.
const NumDropReasons = int(numDropReasons)

var dropReasonNames = [...]string{"tail", "selective", "credit", "trim-fail", "impair"}

// Compile-time guard: dropReasonNames must name every DropReason. Each line
// overflows uint (a compile error) if one side lags the other.
const (
	_ = uint(NumDropReasons - len(dropReasonNames))
	_ = uint(len(dropReasonNames) - NumDropReasons)
)

// String names the drop reason, or "queued" for Queued.
func (r DropReason) String() string {
	switch {
	case int(r) < len(dropReasonNames):
		return dropReasonNames[r]
	case r == Queued:
		return "queued"
	}
	return "unknown"
}

// Backlog is an instantaneous queue occupancy measurement.
type Backlog struct {
	Packets int
	Bytes   int64
}

// Qdisc is a queueing discipline attached to an output port. Enqueue may
// accept, refuse, or mutate (trim) the packet; Dequeue returns the next
// packet eligible for transmission, or nil if none is eligible right now.
// Shaped disciplines (the ExpressPass credit queue) may hold eligible packets
// until a future instant, which they advertise through NextWake.
type Qdisc interface {
	// Enqueue offers p to the queue at the current instant. It returns
	// Queued if the packet was queued (possibly mutated), otherwise the
	// reason it refused it. A discipline never counts or releases a refused
	// packet: Port.Send does both.
	Enqueue(p *Packet, now sim.Time) DropReason

	// Dequeue removes and returns the next transmittable packet, or nil.
	Dequeue(now sim.Time) *Packet

	// NextWake returns the earliest future instant at which Dequeue may
	// return a packet even without further Enqueue calls, or sim.MaxTime if
	// no such instant exists. Unshaped disciplines always return MaxTime.
	NextWake(now sim.Time) sim.Time

	// Backlog reports current occupancy (all internal queues combined).
	Backlog() Backlog
}

// fifo is the byte-accounted packet FIFO underlying every discipline: a
// power-of-two ring that doubles only when its live backlog fills it. A
// port can stay busy for millions of packets at a backlog of a few, so a
// queue's buffer is sized by its peak backlog, never by its busy period.
// The zero value is ready to use.
type fifo struct {
	ring  []*Packet // len is 0 or a power of two
	head  int       // ring index of the oldest packet
	n     int       // live packets: ring[head], ring[head+1], ... modulo len
	bytes int64
}

// fifoMinSlots is the ring's first allocation: one cache line of pointers.
const fifoMinSlots = 8

func (f *fifo) push(p *Packet) {
	if f.n == len(f.ring) {
		f.grow()
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = p
	f.n++
	f.bytes += int64(p.WireSize)
}

// grow doubles the ring, unwrapping the live range to the front.
func (f *fifo) grow() {
	ring := make([]*Packet, max(2*len(f.ring), fifoMinSlots))
	k := copy(ring, f.ring[f.head:])
	copy(ring[k:], f.ring[:f.head])
	f.ring, f.head = ring, 0
}

func (f *fifo) pop() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	f.bytes -= int64(p.WireSize)
	return p
}

func (f *fifo) len() int    { return f.n }
func (f *fifo) size() int64 { return f.bytes }
func (f *fifo) empty() bool { return f.n == 0 }

// Queue is the port discipline of a commodity shared-buffer switch, and of
// every port but NDP's and ExpressPass's credit shaper (which wraps one):
// strict-priority bands, band 0 served first, all drawing on one byte buffer
// so arrivals are tail-dropped regardless of band once it is full.
//
// Aeolus adds no mechanism of its own (§3.2, §4.1): an optional selective
// dropping threshold discards an arriving *unscheduled* data packet whenever
// the port's total backlog would exceed it, while scheduled and control
// packets are bounded only by the buffer. This is the RED/ECN
// re-interpretation on commodity switches: unscheduled packets are Non-ECT
// and dropped at the RED threshold; scheduled packets are ECT(0) and would
// merely be marked, which endpoints ignore. For Homa the threshold applies
// per port across its eight priority queues (§5.1: "for Homa, we configure
// per-port ECN/RED").
type Queue struct {
	limit      int64 // shared buffer bound; <= 0 means unbounded
	threshold  int64 // selective dropping threshold; <= 0 means off
	schedFirst bool  // band rule: scheduled-first instead of Packet.Prio
	bands      []fifo
	total      int64
	maxBytes   int64
}

// NewQueue returns a queue whose packets pick their band by Packet.Prio
// (clamped to the last band), with a selective dropping threshold and a
// shared buffer bound; either <= 0 means none. One band is a plain FIFO:
// drop-tail, or the Aeolus switch queue with a threshold.
func NewQueue(bands int, thresholdBytes, limitBytes int64) *Queue {
	return &Queue{limit: limitBytes, threshold: thresholdBytes, bands: make([]fifo, bands)}
}

// NewSchedFirstQueue returns the two-band queue that serves scheduled and
// control packets ahead of unscheduled data. Unbounded (limitBytes <= 0) it
// is the oracle of the paper's hypothetical baselines (Figs. 1, 3, 4 and
// Table 1) — scheduled packets proceed as if no unscheduled packets were
// present — and the host NIC queue that keeps a sender's scheduled packets
// out from behind its own pre-credit burst. Bounded, it is the realizable
// two-priority-queue alternative of §5.5 that Aeolus argues against:
// unscheduled packets in the low band can fill the shared buffer and starve
// scheduled arrivals (Table 5).
func NewSchedFirstQueue(limitBytes int64) *Queue {
	q := NewQueue(2, 0, limitBytes)
	q.schedFirst = true
	return q
}

// Enqueue implements Qdisc.
func (q *Queue) Enqueue(p *Packet, _ sim.Time) DropReason {
	total := q.total + int64(p.WireSize)
	unsched := !p.Scheduled && !p.Type.IsControl()
	if q.threshold > 0 && unsched && total > q.threshold {
		return DropSelective
	}
	if q.limit > 0 && total > q.limit {
		return DropTailFull
	}
	b := 0
	if q.schedFirst {
		if unsched {
			b = 1
		}
	} else if b = int(p.Prio); b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	q.bands[b].push(p)
	q.total = total
	q.maxBytes = max(q.maxBytes, total)
	return Queued
}

// Dequeue implements Qdisc: the head of the first non-empty band.
func (q *Queue) Dequeue(_ sim.Time) *Packet {
	for i := range q.bands {
		if f := &q.bands[i]; !f.empty() {
			p := f.pop()
			q.total -= int64(p.WireSize)
			return p
		}
	}
	return nil
}

// NextWake implements Qdisc.
func (q *Queue) NextWake(_ sim.Time) sim.Time { return sim.MaxTime }

// Backlog implements Qdisc.
func (q *Queue) Backlog() Backlog {
	var n int
	for i := range q.bands {
		n += q.bands[i].len()
	}
	return Backlog{n, q.total}
}

// MaxBacklogBytes reports the high-water mark of total occupancy.
func (q *Queue) MaxBacklogBytes() int64 { return q.maxBytes }
