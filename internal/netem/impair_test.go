package netem

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// sink is a delivery counter terminating packets like a host endpoint would.
type sink struct {
	pool  *PacketPool
	n     int
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(p *Packet) {
	s.n++
	if s.eng != nil {
		s.times = append(s.times, s.eng.Now())
	}
	s.pool.Put(p)
}

// impairedPort builds an engine, a pooled port with an unlimited FIFO, and
// its impairment controller.
func impairedPort(rate sim.Rate, delay sim.Duration, seed uint64) (*sim.Engine, *Port, *LinkImpairment, *sink) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	dst := &sink{pool: pool, eng: eng}
	pt := NewPort(eng, NewQueue(1, 0, 0), rate, delay, dst, "sw0->h0")
	pt.Pool = pool
	li := InstallImpairment(pt, seed)
	return eng, pt, li, dst
}

func TestImpairmentTargetedLoss(t *testing.T) {
	eng, pt, li, dst := impairedPort(10*sim.Gbps, 0, 7)
	li.SetLoss(1.0, 0, func(p *Packet) bool { return p.Type == Probe })
	tr := NewCountingTracer()
	InstrumentPorts([]*Port{pt}, tr)

	probe, data := pt.Pool.Get(), pt.Pool.Get()
	probe.Type, probe.WireSize = Probe, 64
	data.Type, data.WireSize, data.Scheduled = Data, 1538, true
	pt.Send(probe)
	pt.Send(data)
	eng.Run()
	if tr.Total(TraceDrop, Probe) != 1 {
		t.Fatal("probe survived rate-1 loss")
	}
	if dst.n != 1 || tr.Total(TraceDrop, Data) != 0 {
		t.Fatal("non-matching packet dropped")
	}
	if tot := DropTotals([]*Port{pt}); tot != [NumDropReasons]uint64{DropImpairment: 1} {
		t.Fatalf("DropTotals = %v, want one impairment drop", tot)
	}
}

func TestImpairmentStatisticalRate(t *testing.T) {
	_, _, li, _ := impairedPort(10*sim.Gbps, 0, 11)
	li.SetLoss(0.3, 0, nil)
	dropped := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if li.dropOnArrival(dataPkt(uint64(i), 100, false)) {
			dropped++
		}
	}
	got := float64(dropped) / n
	if got < 0.27 || got > 0.33 {
		t.Fatalf("empirical loss %0.3f, want ≈0.30", got)
	}
}

func TestImpairmentDeterministicNth(t *testing.T) {
	_, _, li, _ := impairedPort(10*sim.Gbps, 0, 3)
	li.SetLoss(0, 5, func(p *Packet) bool { return p.Type == Data })
	var pattern []bool
	for i := 0; i < 20; i++ {
		pattern = append(pattern, li.dropOnArrival(dataPkt(uint64(i), 100, false)))
		// Control packets never advance the nth counter.
		if li.dropOnArrival(&Packet{Type: Ack, WireSize: 64}) {
			t.Fatal("control packet dropped by data-matched nth loss")
		}
	}
	for i, droppedHere := range pattern {
		want := (i+1)%5 == 0
		if droppedHere != want {
			t.Fatalf("packet %d dropped=%v, want %v (every 5th)", i, droppedHere, want)
		}
	}
}

// TestImpairmentFailFreezeRestore drives a link through a fail/restore flap:
// the in-flight packet completes, the backlog freezes while the link is down,
// arrivals during the outage are dropped and accounted, and Restore drains
// the preserved backlog.
func TestImpairmentFailFreezeRestore(t *testing.T) {
	// 1000-byte packets at 8 Gbps serialize in exactly 1 µs.
	eng, pt, li, dst := impairedPort(8*sim.Gbps, 0, 1)
	mk := func(i int) *Packet {
		p := pt.Pool.Get()
		p.Type, p.Flow, p.WireSize = Data, uint64(i), 1000
		return p
	}
	eng.At(0, func() { pt.Send(mk(1)); pt.Send(mk(2)); pt.Send(mk(3)) })
	eng.At(sim.Time(500*sim.Nanosecond), func() { li.Fail() })
	eng.At(sim.Time(2*sim.Microsecond), func() {
		if dst.n != 1 {
			t.Fatalf("delivered %d during outage, want 1 (the in-flight packet)", dst.n)
		}
		if got := pt.Backlog().Packets; got != 2 {
			t.Fatalf("backlog %d during outage, want 2 (frozen)", got)
		}
		pt.Send(mk(4)) // arrival on a dead link
		if n := pt.Drops[DropImpairment]; n != 1 {
			t.Fatalf("impairment drops = %d, want 1 (outage arrival)", n)
		}
	})
	eng.At(sim.Time(10*sim.Microsecond), func() { li.Restore() })
	eng.Run()
	if dst.n != 3 {
		t.Fatalf("delivered %d, want 3 (backlog preserved across flap)", dst.n)
	}
	// Frozen backlog resumed at restore: deliveries at 1, 11 and 12 µs.
	want := []sim.Time{
		sim.Time(1 * sim.Microsecond),
		sim.Time(11 * sim.Microsecond),
		sim.Time(12 * sim.Microsecond),
	}
	for i, at := range dst.times {
		if at != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, at, want[i])
		}
	}
	if live := pt.Pool.Live(); live != 0 {
		t.Fatalf("%d packets leaked", live)
	}
	if err := pt.Pool.CheckCoherence(); err != nil {
		t.Fatalf("pool incoherent after impairment drops: %v", err)
	}
}

func TestImpairmentBlackholeKeepsDraining(t *testing.T) {
	eng, pt, li, dst := impairedPort(8*sim.Gbps, 0, 1)
	mk := func(i int) *Packet {
		p := pt.Pool.Get()
		p.Type, p.Flow, p.WireSize = Data, uint64(i), 1000
		return p
	}
	eng.At(0, func() { pt.Send(mk(1)); pt.Send(mk(2)) })
	eng.At(sim.Time(100*sim.Nanosecond), func() {
		li.SetBlackhole(true)
		pt.Send(mk(3)) // swallowed
	})
	eng.Run()
	if dst.n != 2 {
		t.Fatalf("delivered %d, want 2 (backlog drains through a blackhole)", dst.n)
	}
	if n := pt.Drops[DropImpairment]; n != 1 {
		t.Fatalf("impairment drops = %d, want 1", n)
	}
}

func TestImpairmentRateCap(t *testing.T) {
	_, pt, li, _ := impairedPort(10*sim.Gbps, 0, 1)
	li.SetRate(1 * sim.Gbps)
	if pt.Rate != 1*sim.Gbps {
		t.Fatalf("rate = %v after cap, want 1Gbps", pt.Rate)
	}
	li.SetRate(0)
	if pt.Rate != 10*sim.Gbps {
		t.Fatalf("rate = %v after clear, want the original 10Gbps", pt.Rate)
	}
}

func TestImpairmentDelayAndJitter(t *testing.T) {
	run := func(seed uint64, add, jitter sim.Duration) []sim.Time {
		eng, pt, li, dst := impairedPort(8*sim.Gbps, sim.Microsecond, seed)
		li.SetDelay(add, jitter)
		eng.At(0, func() {
			for i := 0; i < 8; i++ {
				p := pt.Pool.Get()
				p.Type, p.WireSize = Data, 1000
				pt.Send(p)
			}
		})
		eng.Run()
		return dst.times
	}

	// Fixed addition shifts every delivery by exactly add.
	base := run(5, 0, 0)
	shifted := run(5, 3*sim.Microsecond, 0)
	for i := range base {
		if shifted[i] != base[i]+sim.Time(3*sim.Microsecond) {
			t.Fatalf("delivery %d at %v, want %v+3us", i, shifted[i], base[i])
		}
	}

	// Jitter stays within its bound and is deterministic per seed.
	j1 := run(5, 0, 2*sim.Microsecond)
	j2 := run(5, 0, 2*sim.Microsecond)
	varied := false
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatalf("jitter not deterministic: delivery %d %v vs %v", i, j1[i], j2[i])
		}
		d := j1[i] - base[i]
		if d < 0 || d > sim.Time(2*sim.Microsecond) {
			t.Fatalf("delivery %d jittered by %v, outside [0, 2us]", i, d)
		}
		if d != 0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter had no effect on any delivery")
	}
}

// TestImpairmentDropsReleaseToPool is the regression for the folded-in
// LossyQdisc, whose silent refusals were invisible to drop accounting: every
// impairment drop must be traced and counted under DropImpairment exactly
// once and the refused packet must return to the pool.
func TestImpairmentDropsReleaseToPool(t *testing.T) {
	eng, pt, li, dst := impairedPort(8*sim.Gbps, 0, 9)
	li.SetLoss(0.5, 0, nil)
	var tracedDrops uint64
	InstrumentPorts([]*Port{pt}, TraceFunc(func(_ sim.Time, ev TraceEvent, _ string, _ *Packet) {
		if ev == TraceDrop {
			tracedDrops++
		}
	}))
	const n = 200
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			p := pt.Pool.Get()
			p.Type, p.WireSize = Data, 1000
			pt.Send(p)
		}
	})
	eng.Run()
	if tracedDrops == 0 {
		t.Fatal("no drops traced at 50% loss")
	}
	if want := [NumDropReasons]uint64{DropImpairment: tracedDrops}; pt.Drops != want {
		t.Fatalf("port drops %v, want the %d traced drops under impair only", pt.Drops, tracedDrops)
	}
	if uint64(dst.n)+tracedDrops != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", dst.n, tracedDrops, n)
	}
	if live := pt.Pool.Live(); live != 0 {
		t.Fatalf("%d packets leaked after impairment drops", live)
	}
	if err := pt.Pool.CheckCoherence(); err != nil {
		t.Fatalf("pool incoherent: %v", err)
	}
}

// TestImpairmentAfterInstrumentation pins that install order no longer
// matters: a port tapped before InstallImpairment traces and counts an
// injected drop exactly once, because Port.Send decides and reports it.
func TestImpairmentAfterInstrumentation(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	pt := NewPort(eng, NewQueue(1, 0, 0), 10*sim.Gbps, 0, &sink{pool: pool}, "sw0->h0")
	pt.Pool = pool
	tr := NewCountingTracer()
	InstrumentPorts([]*Port{pt}, tr)
	InstallImpairment(pt, 1).SetBlackhole(true)
	p := pool.Get()
	p.Type, p.WireSize = Data, 1000
	pt.Send(p)
	eng.Run()
	if n := tr.Total(TraceDrop, Data); n != 1 {
		t.Fatalf("traced %d drops, want 1", n)
	}
	if want := [NumDropReasons]uint64{DropImpairment: 1}; pt.Drops != want {
		t.Fatalf("port drops %v, want %v", pt.Drops, want)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d packets leaked", live)
	}
}

func TestMatchClasses(t *testing.T) {
	sched := dataPkt(1, 1538, true)
	unsched := dataPkt(2, 1538, false)
	ack := &Packet{Type: Ack, WireSize: 64}
	cases := []struct {
		class   string
		p       *Packet
		matches bool
	}{
		{"data", sched, true}, {"data", ack, false},
		{"ctrl", ack, true}, {"ctrl", unsched, false},
		{"sched", sched, true}, {"sched", unsched, false},
		{"unsched", unsched, true}, {"unsched", sched, false}, {"unsched", ack, false},
	}
	for _, c := range cases {
		m, err := MatchClass(c.class)
		if err != nil {
			t.Fatalf("MatchClass(%q): %v", c.class, err)
		}
		if got := m(c.p); got != c.matches {
			t.Errorf("class %q on %v = %v, want %v", c.class, c.p, got, c.matches)
		}
	}
	for _, all := range []string{"", "all"} {
		if m, err := MatchClass(all); err != nil || m != nil {
			t.Errorf("MatchClass(%q) did not return a nil matcher (err %v)", all, err)
		}
	}
	if _, err := MatchClass("bogus"); err == nil {
		t.Error("MatchClass accepted an unknown class")
	}
}

// TestImpairmentGilbertElliottStationary drives many packets through a
// ge-impaired port and checks the empirical loss against the chain's
// stationary rate p/(p+r) (with good=0, bad=1), and that the losses are
// genuinely bursty: the mean run of consecutive drops approaches 1/r, which
// independent loss at the same rate cannot produce.
func TestImpairmentGilbertElliottStationary(t *testing.T) {
	_, _, li, _ := impairedPort(10*sim.Gbps, 0, 17)
	const p, r = 0.02, 0.25
	li.SetGE(p, r, 0, 1, nil)
	const n = 60000
	dropped, bursts, run := 0, 0, 0
	maxRun := 0
	for i := 0; i < n; i++ {
		if li.dropOnArrival(dataPkt(uint64(i), 100, false)) {
			dropped++
			run++
			continue
		}
		if run > 0 {
			bursts++
			if run > maxRun {
				maxRun = run
			}
			run = 0
		}
	}
	want := p / (p + r) // ≈ 0.074
	got := float64(dropped) / n
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("empirical loss %0.4f, want ≈%0.4f", got, want)
	}
	meanBurst := float64(dropped) / float64(bursts)
	if meanBurst < 0.8/r || meanBurst > 1.2/r {
		t.Fatalf("mean burst length %0.2f, want ≈%0.2f", meanBurst, 1/r)
	}
	if maxRun < 2 {
		t.Fatal("no multi-packet loss burst in 60k packets — loss is not correlated")
	}
}

// TestImpairmentGilbertElliottMatchAndExclusivity: the chain only sees
// matching packets, SetLoss clears the GE process, and SetGE clears uniform
// loss — the processes are mutually exclusive by construction.
func TestImpairmentGilbertElliottMatchAndExclusivity(t *testing.T) {
	_, _, li, _ := impairedPort(10*sim.Gbps, 0, 23)
	li.SetGE(1, 0, 0, 1, func(p *Packet) bool { return p.Type == Data })
	// First matching arrival is lossless (good state, good=0) and flips the
	// chain to bad with p=1; control packets neither drop nor advance it.
	if li.dropOnArrival(dataPkt(0, 100, false)) {
		t.Fatal("first data packet dropped from the good state with good=0")
	}
	for i := 0; i < 5; i++ {
		if li.dropOnArrival(&Packet{Type: Ack, WireSize: 64}) {
			t.Fatal("control packet dropped by data-matched ge loss")
		}
	}
	// r=0: the chain is absorbed in the bad state with bad=1 — every
	// further data packet drops.
	for i := 1; i <= 5; i++ {
		if !li.dropOnArrival(dataPkt(uint64(i), 100, false)) {
			t.Fatalf("data packet %d survived the absorbed bad state", i)
		}
	}
	// SetLoss replaces the chain entirely.
	li.SetLoss(0, 0, nil)
	if li.dropOnArrival(dataPkt(99, 100, false)) {
		t.Fatal("ge state leaked through SetLoss")
	}
	// And SetGE replaces uniform loss: rate-1 loss then a fresh all-pass
	// chain (good=0, p=0) lets everything through again.
	li.SetLoss(1, 0, nil)
	if !li.dropOnArrival(dataPkt(100, 100, false)) {
		t.Fatal("rate-1 loss let a packet through")
	}
	li.SetGE(0, 0, 0, 1, nil)
	if li.dropOnArrival(dataPkt(101, 100, false)) {
		t.Fatal("uniform loss leaked through SetGE")
	}
}
