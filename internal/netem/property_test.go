package netem

import (
	"testing"
	"testing/quick"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// Property: the XPass credit shaper never releases credits faster than its
// configured rate over any prefix of a run — the invariant ExpressPass
// depends on for zero scheduled loss. Credits arrive 10% faster than the
// shaper drains them, so about n/10 of them wait, under the 15-credit bound.
func TestXPassShaperRateProperty(t *testing.T) {
	prop := func(nCreditsRaw uint8) bool {
		n := int(nCreditsRaw%64) + 2
		link := sim.Rate(10 * sim.Gbps)
		q := NewQueue(1, 0, DefaultBuffer).WithCredits(link)
		eng := sim.NewEngine()
		dst := &collector{eng: eng}
		host := &Host{ID: 1, Eng: eng, EP: dst}
		pt := NewPort(eng, q, link, 0, host, "t")
		gap := sim.TxTime(CreditSize, CreditRateFor(link))
		for i := 0; i < n; i++ {
			p := &Packet{Type: Credit, Flow: uint64(i), WireSize: CreditSize}
			eng.At(sim.Time(i)*sim.Time(gap)*9/10, func() { pt.Send(p) })
		}
		eng.Run()
		if len(dst.pkts) != n {
			return false
		}
		// Check the pacing constraint over every prefix: k credits need at
		// least (k-1) shaper gaps.
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

// Property: an NDP port conserves packets — every enqueued packet is either
// dequeued (possibly trimmed) or refused as a lost header (a trimming queue
// never tail-drops); nothing vanishes.
func TestNDPQueueConservationProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		q := NewQueue(1, 0, 3*9000).WithControl(2*9000, true)
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

// Property: a queue's ring keeps FIFO order and exact byte counts however
// Enqueue and Dequeue interleave. Each op pushes op&7 packets, then pops
// op>>3&7, so runs wrap the ring and grow it while packets are queued; a
// plain slice is the reference, and Audit must pass after every step.
func TestQueueRingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		q := NewQueue(1, 0, 0)
		var ref []*Packet
		var refBytes int64
		id := uint64(0)
		for _, op := range ops {
			for range op & 7 {
				p := dataPkt(id, 64+int(id%1400), false)
				id++
				if q.Enqueue(p, 0) != Queued {
					return false
				}
				ref = append(ref, p)
				refBytes += int64(p.WireSize)
				if q.Audit() != nil {
					return false
				}
			}
			for range op >> 3 & 7 {
				p := q.Dequeue(0)
				if len(ref) == 0 {
					if p != nil {
						return false
					}
					continue
				}
				if p != ref[0] {
					return false
				}
				ref = ref[1:]
				refBytes -= int64(p.WireSize)
				if q.Audit() != nil {
					return false
				}
			}
			if b := q.Backlog(); b.Packets != len(ref) || b.Bytes != refBytes {
				return false
			}
		}
		return true
	}
	// Push 6, pop 5, push 12: the ring wraps at 8 slots, then grows to 16
	// with its live range split across the wrap point.
	wrapThenGrow := []uint8{6 | 5<<3, 7, 5}
	if !prop(wrapThenGrow) {
		t.Fatal("wrap-then-grow sequence broke order, bytes or the audit")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOAuditCatchesCorruption: fifo.audit walks the live range across
// the wrap point, so a nil live slot or byte drift is caught wherever it sits.
func TestFIFOAuditCatchesCorruption(t *testing.T) {
	wrapped := func() *fifo {
		var f fifo
		for i := range 6 {
			f.push(dataPkt(uint64(i), 1538, false))
		}
		for range 5 {
			f.pop()
		}
		for i := range 5 {
			f.push(dataPkt(uint64(10+i), 1538, false))
		}
		if f.head+f.n <= len(f.ring) {
			t.Fatalf("setup: live range [%d, %d) does not wrap an %d-slot ring", f.head, f.head+f.n, len(f.ring))
		}
		return &f
	}
	if err := wrapped().audit("clean"); err != nil {
		t.Fatalf("clean wrapped ring failed audit: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(f *fifo)
	}{
		{"nil live slot past the wrap", func(f *fifo) { f.ring[(f.head+f.n-1)&(len(f.ring)-1)] = nil }},
		{"byte drift", func(f *fifo) { f.bytes -= 3 }},
		{"live count over the ring", func(f *fifo) { f.n = len(f.ring) + 1 }},
		{"head outside the ring", func(f *fifo) { f.head = len(f.ring) }},
	}
	for _, c := range cases {
		f := wrapped()
		c.corrupt(f)
		if err := f.audit(c.name); err == nil {
			t.Errorf("%s: not detected", c.name)
		}
	}
}

// Property: a front band keeps its own ledger. Random mixes of credits,
// control packets, trimmed headers and scheduled and unscheduled data of
// random sizes are offered to each front configuration the catalogues
// build, with dequeues at advancing times. The test keeps its own byte
// counts, split by where each packet belongs, and checks that the front
// band stays within its bound and never counts toward the bands' threshold,
// buffer or high-water mark; that a packet is refused only for its own
// band's reason; that credits leave at least one shaper gap apart and an
// eligible front packet always leaves first; that accepted packets equal
// dequeued plus queued ones; and that the queue audits clean throughout.
func TestFrontBandProperty(t *testing.T) {
	link := sim.Rate(10 * sim.Gbps)
	gap := sim.TxTime(CreditSize, CreditRateFor(link))
	credits := func(p *Packet) bool { return p.Type == Credit }
	control := func(p *Packet) bool { return p.Type.IsControl() || p.Trimmed }
	for _, c := range []struct {
		name             string
		q                func() *Queue
		front            func(p *Packet) bool
		frontLimit       int64
		threshold, limit int64
		gap              sim.Duration
		full             DropReason
		maxData          int // largest data frame offered
	}{
		{"credits over a thresholded band", func() *Queue { return NewQueue(1, 6<<10, 20<<10).WithCredits(link) },
			credits, creditLimit * CreditSize, 6 << 10, 20 << 10, gap, DropCreditOver, 1538},
		{"credits over the scheduled-first pair", func() *Queue { return NewSchedFirstQueue(12 << 10).WithCredits(link) },
			credits, creditLimit * CreditSize, 0, 12 << 10, gap, DropCreditOver, 1538},
		{"control with trimming", func() *Queue { return NewQueue(1, 0, 3*JumboMTU).WithControl(4*HeaderSize, true) },
			control, 4 * HeaderSize, 0, 3 * JumboMTU, 0, DropTrimFail, JumboMTU},
		{"control with a threshold", func() *Queue { return NewQueue(1, 2*JumboMTU, 5*JumboMTU).WithControl(4*HeaderSize, false) },
			control, 4 * HeaderSize, 2 * JumboMTU, 5 * JumboMTU, 0, DropTrimFail, JumboMTU},
	} {
		t.Run(c.name, func(t *testing.T) {
			prop := func(ops []uint32) bool {
				q := c.q()
				var (
					now, lastFront        sim.Time
					frontLeft             bool
					bandN, frontN         int
					bandBytes, frontBytes int64
					maxBand               int64
					accepted, dequeued    int
				)
				fail := func(i int, format string, args ...any) bool {
					t.Logf("op %d: "+format, append([]any{i}, args...)...)
					return false
				}
				for i, op := range ops {
					var offer []*Packet
					size := HeaderSize + int(op>>8)%(c.maxData-HeaderSize+1)
					switch op % 8 {
					case 0: // a burst of up to 8 credits fills the credit band
						for range 1 + op>>8%8 {
							offer = append(offer, &Packet{Type: Credit, WireSize: CreditSize})
						}
					case 1:
						offer = append(offer, &Packet{Type: Pull, WireSize: HeaderSize})
					case 2, 3:
						offer = append(offer, dataPkt(uint64(i), size, false))
					case 4:
						offer = append(offer, dataPkt(uint64(i), size, true))
					case 5:
						p := dataPkt(uint64(i), size, false)
						p.Trim()
						offer = append(offer, p)
					default:
						now = now.Add(sim.Duration(op>>8) % (2*c.gap + sim.Microsecond))
						eligible := frontN > 0 && (!frontLeft || now >= lastFront.Add(c.gap))
						got := q.Dequeue(now)
						switch {
						case got == nil && (eligible || bandN > 0):
							return fail(i, "nil dequeue with %d band and %d front packets queued", bandN, frontN)
						case got == nil:
						case eligible && !c.front(got):
							return fail(i, "served a band packet over an eligible front packet")
						case c.front(got):
							if frontLeft && now < lastFront.Add(c.gap) {
								return fail(i, "credit left %v after the last, under the %v gap", now-lastFront, c.gap)
							}
							lastFront, frontLeft = now, true
							frontN--
							frontBytes -= int64(got.WireSize)
						default:
							bandN--
							bandBytes -= int64(got.WireSize)
						}
						if got != nil {
							dequeued++
						}
					}
					for _, p := range offer {
						wire := int64(p.WireSize)
						front := c.front(p)
						unsched := !front && !p.Scheduled && !p.Type.IsControl()
						fitsBands := (c.threshold <= 0 || !unsched || bandBytes+wire <= c.threshold) &&
							bandBytes+wire <= c.limit
						r := q.Enqueue(p, now)
						switch {
						case r == DropSelective && !(unsched && c.threshold > 0 && bandBytes+wire > c.threshold):
							return fail(i, "selective drop of %v with %d band bytes", p, bandBytes)
						case front && frontBytes+wire <= c.frontLimit && r != Queued:
							return fail(i, "front packet %v refused (%v) with %d front bytes", p, r, frontBytes)
						case front && r != Queued && r != c.full:
							return fail(i, "full front band refused %v as %v, want %v", p, r, c.full)
						case !front && fitsBands && r != Queued:
							return fail(i, "band packet %v refused (%v) with %d band and %d front bytes", p, r, bandBytes, frontBytes)
						case r != Queued:
						case c.front(p): // a trimmed header lands in the front band
							accepted++
							frontN++
							frontBytes += int64(p.WireSize)
						default:
							accepted++
							bandN++
							bandBytes += wire
							maxBand = max(maxBand, bandBytes)
						}
					}
					switch b := q.Backlog(); {
					case frontBytes > c.frontLimit || bandBytes > c.limit:
						return fail(i, "%d front bytes over %d or %d band bytes over %d", frontBytes, c.frontLimit, bandBytes, c.limit)
					case accepted != dequeued+b.Packets || b != Backlog{bandN + frontN, bandBytes + frontBytes}:
						return fail(i, "backlog %+v, want %d band and %d front packets of %d and %d bytes (%d in, %d out)",
							b, bandN, frontN, bandBytes, frontBytes, accepted, dequeued)
					case q.MaxBacklogBytes() != maxBand:
						return fail(i, "high-water mark %d, want the bands' %d", q.MaxBacklogBytes(), maxBand)
					}
					if err := q.Audit(); err != nil {
						return fail(i, "audit: %v", err)
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
