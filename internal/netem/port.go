package netem

import "github.com/aeolus-transport/aeolus/internal/sim"

// Node is anything a port can deliver packets to: a host or a switch.
type Node interface {
	Receive(p *Packet)
}

// Port is a unidirectional output port: a queueing discipline feeding a
// serializer at the link rate, followed by a fixed propagation delay to the
// destination node. Ports never reorder what their qdisc hands them.
//
// The serialization hot path schedules no closures: the tx-done and wake-up
// events dispatch through pointer-cast views of the port itself, and the
// delivery event is the packet (see Packet.Fire).
type Port struct {
	Eng   *sim.Engine
	Q     Qdisc
	Rate  sim.Rate
	Delay sim.Duration
	Dst   Node
	Pool  *PacketPool // releases dropped packets; nil is valid (no recycling)
	Label string      // e.g. "leaf3->spine1", for diagnostics

	// Imp, when non-nil, is the link-impairment controller installed by
	// InstallImpairment: it may mutate Rate and add per-packet delivery
	// delay. Unimpaired ports pay nothing for it.
	Imp *LinkImpairment

	// X, when non-nil, marks this port as a cross-shard link: the delivery
	// event is handed to the shard exchange instead of the local engine, and
	// the destination shard schedules it at the next window barrier. Ports
	// inside a shard (and every port of an unsharded run) pay one nil check.
	X *CrossLink

	busy   bool
	wake   sim.Handle
	wakeAt sim.Time

	// Counters.
	TxPackets uint64
	TxBytes   int64
	Drops     [NumDropReasons]uint64 // packets the qdisc refused, by reason
}

// portTxDone and portWake are zero-state Handler views of a Port: casting
// the port pointer selects which Fire runs, so scheduling either event
// allocates nothing.
type portTxDone Port

func (d *portTxDone) Fire() {
	pt := (*Port)(d)
	pt.busy = false
	pt.kick()
}

type portWake Port

func (w *portWake) Fire() {
	pt := (*Port)(w)
	pt.wake = sim.Handle{}
	pt.kick()
}

// NewPort constructs a port. The qdisc, rate and destination must be set.
func NewPort(eng *sim.Engine, q Qdisc, rate sim.Rate, delay sim.Duration, dst Node, label string) *Port {
	return &Port{Eng: eng, Q: q, Rate: rate, Delay: delay, Dst: dst, Label: label}
}

// Send offers a packet to the port. A packet the qdisc refuses dies here,
// the one place a drop is counted: the port adds it to Drops under the
// qdisc's reason and releases it to the pool, mirroring Host.deliver for
// deliveries. A tracer, when installed, has already seen the drop inside
// Enqueue.
func (pt *Port) Send(p *Packet) {
	if r := pt.Q.Enqueue(p, pt.Eng.Now()); r != Queued {
		pt.Drops[r]++
		pt.Pool.Put(p)
		return
	}
	pt.kick()
}

// kick starts the serializer if it is idle and a packet is eligible. If the
// qdisc is holding shaped packets, a wake-up is scheduled instead.
func (pt *Port) kick() {
	if pt.busy {
		return
	}
	now := pt.Eng.Now()
	p := pt.Q.Dequeue(now)
	if p == nil {
		w := pt.Q.NextWake(now)
		if w == sim.MaxTime {
			return
		}
		if pt.wake.Pending() && pt.wakeAt <= w && pt.wakeAt > now {
			return // an earlier or equal wake-up is already pending
		}
		pt.wake.Cancel()
		if w <= now {
			w = now + 1 // defensive: never busy-loop at the same instant
		}
		pt.wakeAt = w
		pt.wake = pt.Eng.AtHandler(w, (*portWake)(pt))
		return
	}
	pt.busy = true
	pt.TxPackets++
	pt.TxBytes += int64(p.WireSize)
	tx := sim.TxTime(p.WireSize, pt.Rate)
	pt.Eng.AfterHandler(tx, (*portTxDone)(pt))
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

// Backlog reports the qdisc occupancy.
func (pt *Port) Backlog() Backlog { return pt.Q.Backlog() }
