package netem

import (
	"testing"
	"testing/quick"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// Property: the XPass credit shaper never releases credits faster than its
// configured rate over any prefix of a run — the invariant ExpressPass
// depends on for zero scheduled loss.
func TestXPassShaperRateProperty(t *testing.T) {
	prop := func(nCreditsRaw uint8) bool {
		n := int(nCreditsRaw%64) + 2
		link := sim.Rate(10 * sim.Gbps)
		q := NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(link), CreditLimit: 1000})
		eng := sim.NewEngine()
		dst := &collector{eng: eng}
		host := &Host{ID: 1, Eng: eng, EP: dst}
		pt := NewPort(eng, q, link, 0, host, "t")
		for i := 0; i < n; i++ {
			pt.Send(&Packet{Type: Credit, Flow: uint64(i), WireSize: CreditSize})
		}
		eng.Run()
		if len(dst.pkts) != n {
			return false
		}
		// Check the pacing constraint over every prefix: k credits need at
		// least (k-1) shaper gaps.
		gap := sim.TxTime(CreditSize, CreditRateFor(link))
		for k := 1; k < n; k++ {
			if dst.at[k]-dst.at[0] < sim.Time(k)*sim.Time(gap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a port delivers same-class packets in FIFO order — the in-order
// guarantee the Aeolus probe protocol relies on (§3.3 loss detection infers
// losses from the probe overtaking nothing).
func TestPortFIFOOrderProperty(t *testing.T) {
	prop := func(sizesRaw []uint8) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 200 {
			return true
		}
		eng := sim.NewEngine()
		dst := &collector{eng: eng}
		host := &Host{ID: 1, Eng: eng, EP: dst}
		pt := NewPort(eng, NewQueue(1, 0, 0), 10*sim.Gbps, sim.Microsecond, host, "t")
		for i, sz := range sizesRaw {
			p := dataPkt(uint64(i), int(sz)+64, false)
			pt.Send(p)
		}
		eng.Run()
		if len(dst.pkts) != len(sizesRaw) {
			return false
		}
		for i, p := range dst.pkts {
			if p.Flow != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: NDPQueue conserves packets — every enqueued packet is either
// dequeued (possibly trimmed) or refused as a lost header (a trimming queue
// never tail-drops); nothing vanishes.
func TestNDPQueueConservationProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		q := NewNDPQueue(NDPQueueConfig{Trim: true, DataLimitBytes: 3 * 9000, CtrlLimitBytes: 2 * 9000})
		in, out := 0, 0
		for i, op := range ops {
			var p *Packet
			switch op % 4 {
			case 0, 1:
				p = dataPkt(uint64(i), 9000, false)
			case 2:
				p = &Packet{Type: Pull, WireSize: HeaderSize}
			case 3:
				if q.Dequeue(0) != nil {
					out++
				}
			}
			if p != nil {
				switch q.Enqueue(p, 0) {
				case Queued:
					in++
				case DropTrimFail:
				default:
					return false
				}
			}
			if in != out+q.Backlog().Packets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Queue serves strictly by band — a dequeued packet's band is
// never greater than any band still queued... i.e. at each dequeue, the
// returned packet has the minimum band among queued packets.
func TestPrioQdiscStrictnessProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		q := NewQueue(8, 0, 0)
		queued := map[uint8]int{}
		for i, op := range ops {
			if op%3 != 0 {
				band := op % 8
				p := dataPkt(uint64(i), 100, false)
				p.Prio = band
				q.Enqueue(p, 0)
				queued[band]++
			} else {
				p := q.Dequeue(0)
				if p == nil {
					continue
				}
				for b := uint8(0); b < p.Prio; b++ {
					if queued[b] > 0 {
						return false // served a low-prio packet over a queued high-prio one
					}
				}
				queued[p.Prio]--
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
