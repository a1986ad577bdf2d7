package netem

import (
	"slices"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// recvFunc is a Node that hands every delivery to a function.
type recvFunc func(p *Packet)

func (f recvFunc) Receive(p *Packet) { f(p) }

// TestPortTxDoneTies pins who wins the instant a transmission ends. A
// two-band port is sending L1 (low priority); at exactly its tx end, two
// arrival events offer L2 (low) and then H (high). An arrival stamped before
// L1's tx start dispatches before the tx-done and finds the serializer busy;
// one stamped after finds it free. In the mixed case L2's arrival arms the
// tx-done inside its instant's live dispatch batch, ahead of H's arrival,
// so L2 goes on the wire before H arrives.
func TestPortTxDoneTies(t *testing.T) {
	for _, kind := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
		for _, c := range []struct {
			name              string
			l2Before, hBefore bool
			want              []uint64 // transmit order by flow: L1=1, L2=2, H=3
		}{
			{"both-before", true, true, []uint64{1, 3, 2}},
			{"both-after", false, false, []uint64{1, 2, 3}},
			{"l2-before-h-after", true, false, []uint64{1, 2, 3}},
		} {
			eng := sim.NewEngineWith(kind)
			var order []uint64
			dst := recvFunc(func(p *Packet) { order = append(order, p.Flow) })
			pt := NewPort(eng, NewQueue(2, 0, 0), 10*sim.Gbps, sim.Microsecond, dst, "tie")
			pkt := func(flow uint64, prio uint8) *Packet {
				p := dataPkt(flow, 1500, false)
				p.Prio = prio
				return p
			}
			txEnd := sim.Time(sim.TxTime(1500, pt.Rate))
			arrive := func(p *Packet) { eng.At(txEnd, func() { pt.Send(p) }) }
			l2, h := pkt(2, 1), pkt(3, 0)
			if c.l2Before {
				arrive(l2)
			}
			if c.hBefore {
				arrive(h)
			}
			pt.Send(pkt(1, 1))
			if !c.l2Before {
				arrive(l2)
			}
			if !c.hBefore {
				arrive(h)
			}
			eng.Run()
			if !slices.Equal(order, c.want) {
				t.Errorf("%s/%s: transmit order %v, want %v", kind, c.name, order, c.want)
			}
		}
	}
}

// TestIdlePortEventsPerPacket pins the events a port spends per packet: a
// tx-done is scheduled only when a packet waits for the serializer. 100
// packets spaced wider than their serialization time fire their 100 send
// events and 100 deliveries and no tx-done; a 100-packet burst fires 100
// deliveries and 99 tx-dones, none after the last packet. Serialization
// timing is unchanged: the burst's last delivery lands 100 tx times after
// it started, plus the link delay.
func TestIdlePortEventsPerPacket(t *testing.T) {
	const n = 100
	run := func(spaced bool) (events uint64, delivered int, last sim.Time) {
		eng := sim.NewEngine()
		dst := recvFunc(func(*Packet) { delivered++; last = eng.Now() })
		pt := NewPort(eng, NewQueue(1, 0, 0), 10*sim.Gbps, sim.Microsecond, dst, "idle")
		for i := 0; i < n; i++ {
			p := dataPkt(uint64(i), 1500, true)
			if spaced {
				eng.At(sim.Time(2*sim.Microsecond*sim.Duration(i)), func() { pt.Send(p) })
			} else {
				pt.Send(p)
			}
		}
		eng.Run()
		return eng.Fired(), delivered, last
	}
	if events, delivered, _ := run(true); events != 2*n || delivered != n {
		t.Errorf("%d spaced packets: %d events, %d delivered; want %d, %d", n, events, delivered, 2*n, n)
	}
	wantLast := sim.Time(n*sim.TxTime(1500, 10*sim.Gbps) + sim.Microsecond)
	if events, delivered, last := run(false); events != 2*n-1 || delivered != n || last != wantLast {
		t.Errorf("%d-packet burst: %d events, %d delivered, last at %v; want %d, %d, %v",
			n, events, delivered, last, 2*n-1, n, wantLast)
	}
}
