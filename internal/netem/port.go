package netem

import "github.com/aeolus-transport/aeolus/internal/sim"

// Node is anything a port can deliver packets to: a host or a switch.
type Node interface {
	Receive(p *Packet)
}

// Port is a unidirectional output port: a Queue feeding a serializer at the
// link rate, followed by a fixed propagation delay to the destination node.
// Ports never reorder what their queue hands them.
//
// The serialization hot path schedules no closures: the tx-done and wake-up
// events dispatch through pointer-cast views of the port itself, and the
// delivery event is the packet (see Packet.Fire).
type Port struct {
	Eng   *sim.Engine
	Q     *Queue
	Rate  sim.Rate
	Delay sim.Duration
	Dst   Node
	Pool  *PacketPool // releases dropped packets; nil is valid (no recycling)
	Label string      // e.g. "leaf3->spine1", for diagnostics

	// Imp, when non-nil, is the link-impairment controller installed by
	// InstallImpairment: it may refuse arrivals, freeze the serializer,
	// mutate Rate and add per-packet delivery delay. Unimpaired ports pay
	// one nil check for it.
	Imp *LinkImpairment

	// Tap, when non-nil, observes the fate of every packet offered to the
	// port (set by InstrumentPorts). Untraced ports pay one nil check.
	Tap Tracer

	// X, when non-nil, marks this port as a cross-shard link: the delivery
	// event is handed to the shard exchange instead of the local engine, and
	// the destination shard schedules it before its next window. Ports
	// inside a shard (and every port of an unsharded run) pay one nil check.
	X *CrossLink

	// The serializer is busy until the tx-done event at (txEnd, txStamp)
	// fires. kick reserves that stamp at tx start but schedules the event
	// (txArmed) only once a packet waits for it, so a transmission that
	// leaves the queue empty costs no tx-done unless a packet arrives before
	// it would have fired; the event then fires exactly where it would have.
	txEnd   sim.Time
	txStamp sim.Stamp
	txArmed bool
	wake    sim.Handle
	wakeAt  sim.Time

	// Counters.
	TxPackets uint64
	TxBytes   int64
	Drops     [NumDropReasons]uint64 // packets Send refused, by reason
}

// portTxDone and portWake are zero-state Handler views of a Port: casting
// the port pointer selects which Fire runs, so scheduling either event
// allocates nothing.
type portTxDone Port

func (d *portTxDone) Fire() {
	pt := (*Port)(d)
	pt.txArmed = false
	pt.kick()
}

type portWake Port

func (w *portWake) Fire() {
	pt := (*Port)(w)
	pt.wake = sim.Handle{}
	pt.kick()
}

// NewPort constructs a port. The queue, rate and destination must be set.
func NewPort(eng *sim.Engine, q *Queue, rate sim.Rate, delay sim.Duration, dst Node, label string) *Port {
	return &Port{Eng: eng, Q: q, Rate: rate, Delay: delay, Dst: dst, Label: label}
}

// Send offers a packet to the port and settles its fate in one place, in a
// fixed order: the impairment's arrival drop (DropImpairment), otherwise the
// queue's Enqueue; then the tap, when set, observes the outcome (a drop, a
// trim, or a plain enqueue); then a refused packet is counted in Drops under
// its reason and released to the pool, mirroring Host.deliver for
// deliveries.
func (pt *Port) Send(p *Packet) {
	now := pt.Eng.Now()
	wasTrimmed := p.Trimmed
	r := DropImpairment
	if pt.Imp == nil || !pt.Imp.dropOnArrival(p) {
		r = pt.Q.Enqueue(p, now)
	}
	if pt.Tap != nil {
		ev := TraceEnqueue
		switch {
		case r != Queued:
			ev = TraceDrop
		case !wasTrimmed && p.Trimmed:
			ev = TraceTrim
		}
		pt.Tap.Trace(now, ev, pt.Label, p)
	}
	if r != Queued {
		pt.Drops[r]++
		pt.Pool.Put(p)
		return
	}
	pt.kick()
}

// kick starts the serializer if it is idle and a packet is eligible. If the
// queue is holding shaped credits, a wake-up is scheduled instead. A busy
// serializer arms its tx-done when a packet waits, so that tx-done kicks
// again. A failed link is frozen: kick does nothing until
// LinkImpairment.Restore kicks it.
func (pt *Port) kick() {
	if pt.txArmed || pt.Imp != nil && pt.Imp.down {
		return
	}
	if !pt.Eng.Passed(pt.txEnd, pt.txStamp) {
		if pt.Q.Backlog().Packets > 0 {
			pt.armTxDone()
		}
		return
	}
	now := pt.Eng.Now()
	p := pt.Q.Dequeue(now)
	if p == nil {
		w := pt.Q.NextWake()
		if w == sim.MaxTime {
			return
		}
		if pt.wake.Pending() && pt.wakeAt <= w && pt.wakeAt > now {
			return // an earlier or equal wake-up is already pending
		}
		pt.wake.Cancel()
		pt.wakeAt = w
		pt.wake = pt.Eng.AtHandler(w, (*portWake)(pt))
		return
	}
	pt.TxPackets++
	pt.TxBytes += int64(p.WireSize)
	tx := sim.TxTime(p.WireSize, pt.Rate)
	pt.txEnd, pt.txStamp = now.Add(tx), pt.Eng.Reserve()
	if pt.Q.Backlog().Packets > 0 {
		pt.armTxDone()
	}
	p.next = pt.Dst
	delay := pt.Delay
	if pt.Imp != nil {
		delay += pt.Imp.wireDelay()
	}
	if pt.X != nil {
		pt.X.depart(p, now.Add(tx+delay), now)
		return
	}
	pt.Eng.AfterHandler(tx+delay, p)
}

// armTxDone schedules the tx-done event of the current transmission at its
// reserved stamp.
func (pt *Port) armTxDone() {
	pt.txArmed = true
	pt.Eng.AtStamped(pt.txEnd, pt.txStamp, (*portTxDone)(pt))
}

// Backlog reports the queue occupancy.
func (pt *Port) Backlog() Backlog { return pt.Q.Backlog() }
