package netem

import (
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// DropReason classifies why a port refused a packet.
type DropReason uint8

// Drop reasons.
const (
	DropTailFull   DropReason = iota // buffer exhausted
	DropSelective                    // Aeolus selective dropping (unscheduled over threshold)
	DropCreditOver                   // ExpressPass credit band full
	DropTrimFail                     // NDP control band full, a trimmed header included
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

// fifo is the byte-accounted packet FIFO underlying every band: a
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

// Queue is the discipline of every port, the queue of a commodity
// shared-buffer switch: strict-priority bands, band 0 served first, all
// drawing on one byte buffer so arrivals are tail-dropped regardless of band
// once it is full.
//
// Aeolus adds no mechanism of its own (§3.2, §4.1): an optional selective
// dropping threshold discards an arriving *unscheduled* data packet whenever
// the bands' total backlog would exceed it, while scheduled and control
// packets are bounded only by the buffer. This is the RED/ECN
// re-interpretation on commodity switches: unscheduled packets are Non-ECT
// and dropped at the RED threshold; scheduled packets are ECT(0) and would
// merely be marked, which endpoints ignore. For Homa the threshold applies
// per port across its eight priority queues (§5.1: "for Homa, we configure
// per-port ECN/RED").
//
// ExpressPass's credit shaping and NDP's control queue and trimming are each
// one more setting of the same queue: a front band (WithCredits,
// WithControl), served ahead of the bands under its own byte bound, outside
// their shared buffer and their threshold.
type Queue struct {
	limit      int64 // shared buffer bound; <= 0 means unbounded
	threshold  int64 // selective dropping threshold; <= 0 means off
	schedFirst bool  // band rule: scheduled-first instead of Packet.Prio
	bands      []fifo
	total      int64 // bytes in the bands, the front band excluded
	maxBytes   int64
	front      *front // nil unless WithCredits or WithControl set one
}

// front is a Queue's front band. A credit band takes ExpressPass credits and
// releases them no closer than gap apart; a control band takes control
// packets and trimmed headers, and with trim it also takes, cut to its
// header, a data packet that would overflow the bands' buffer.
type front struct {
	fifo
	limit   int64        // byte bound
	gap     sim.Duration // shaper spacing; 0 on a control band
	next    sim.Time     // earliest instant the head may leave
	credits bool
	trim    bool
}

// creditLimit bounds a credit band in credits. ExpressPass drops the credits
// past it, the congestion signal its feedback control reads.
const creditLimit = 15

// CreditRateFor returns the shaped credit rate for a given link rate,
// following ExpressPass: creditSize/(creditSize+maxDataSize-ish) — the
// canonical ratio 84/1538. At that rate the data the credits trigger on the
// reverse link never exceeds its capacity.
func CreditRateFor(link sim.Rate) sim.Rate {
	return sim.Rate(int64(link) * CreditSize / 1538)
}

// takes reports whether p belongs in the front band.
func (f *front) takes(p *Packet) bool {
	if f.credits {
		return p.Type == Credit
	}
	return p.Type.IsControl() || p.Trimmed
}

// admit queues p within the band's bound, or returns the reason it refuses.
func (f *front) admit(p *Packet) DropReason {
	if f.size()+int64(p.WireSize) > f.limit {
		if f.credits {
			return DropCreditOver
		}
		return DropTrimFail
	}
	f.push(p)
	return Queued
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

// WithCredits gives q the front band of an ExpressPass port on a link of the
// given rate: it holds up to creditLimit credits and releases them one
// credit time at CreditRateFor(link) apart. The shaper keeps a one-credit
// token, so an idle period does not accumulate a burst. It returns q.
func (q *Queue) WithCredits(link sim.Rate) *Queue {
	gap := sim.TxTime(CreditSize, CreditRateFor(link))
	q.front = &front{limit: creditLimit * CreditSize, gap: gap, credits: true}
	return q
}

// WithControl gives q the front band of an NDP switch port (§5.4): control
// packets and trimmed headers, up to limitBytes, served ahead of data. With
// trim, a data packet that would overflow the bands' buffer is cut to its
// header and queued there instead of dropped. It returns q.
func (q *Queue) WithControl(limitBytes int64, trim bool) *Queue {
	q.front = &front{limit: limitBytes, trim: trim}
	return q
}

// Enqueue offers p to the queue. It returns Queued if the packet was queued
// (trimmed, perhaps), otherwise the reason it refused it. The queue never
// counts or releases a refused packet: Port.Send does both.
func (q *Queue) Enqueue(p *Packet, _ sim.Time) DropReason {
	f := q.front
	if f != nil && f.takes(p) {
		return f.admit(p)
	}
	total := q.total + int64(p.WireSize)
	unsched := !p.Scheduled && !p.Type.IsControl()
	if q.threshold > 0 && unsched && total > q.threshold {
		return DropSelective
	}
	if q.limit > 0 && total > q.limit {
		if f != nil && f.trim {
			p.Trim()
			return f.admit(p)
		}
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

// Dequeue removes and returns the next packet eligible at now: the front
// band's head once its shaper releases it, else the head of the first
// non-empty band, else nil.
func (q *Queue) Dequeue(now sim.Time) *Packet {
	if f := q.front; f != nil && !f.empty() && now >= f.next {
		f.next = now.Add(f.gap)
		return f.pop()
	}
	for i := range q.bands {
		if f := &q.bands[i]; !f.empty() {
			p := f.pop()
			q.total -= int64(p.WireSize)
			return p
		}
	}
	return nil
}

// NextWake returns the instant the front band's head becomes eligible, or
// sim.MaxTime when no front packet waits: every other packet is eligible at
// once. After Dequeue returns nil it is the shaper's next release, which
// lies after now.
func (q *Queue) NextWake() sim.Time {
	if f := q.front; f != nil && !f.empty() {
		return f.next
	}
	return sim.MaxTime
}

// Backlog reports current occupancy, the front band included.
func (q *Queue) Backlog() Backlog {
	b := Backlog{Bytes: q.total}
	if f := q.front; f != nil {
		b = Backlog{f.len(), f.size() + q.total}
	}
	for i := range q.bands {
		b.Packets += q.bands[i].len()
	}
	return b
}

// MaxBacklogBytes reports the high-water mark of the bands' total
// occupancy; the front band never counts toward it.
func (q *Queue) MaxBacklogBytes() int64 { return q.maxBytes }
