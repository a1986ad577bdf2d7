package core

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

func testEnv(t *testing.T) *transport.Env {
	t.Helper()
	eng := sim.NewEngine()
	net := netem.BuildClos(eng, netem.TopoSpec{HostsPerEdge: 2, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	return transport.NewEnv(net, netem.MaxPayload)
}

type sentRec struct {
	seg       int
	scheduled bool
}

// harness readies the machine of flow 1, host 0 to host 1, and records what
// it puts on host 0's NIC (see tap).
func harness(t *testing.T, size int64, opts Options) (*transport.Env, *PreCredit, *[]sentRec, *int) {
	env := testEnv(t)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	pc := newPreCredit(env, f, opts, env.Net.BDPBytes())
	sent, probes := tap(env, f.ID)
	return env, pc, sent, probes
}

func newPreCredit(env *transport.Env, f *transport.Flow, opts Options, bdpBytes int64) *PreCredit {
	pc := new(PreCredit)
	pc.Init(env, f, opts, bdpBytes)
	return pc
}

// tap records what host 0 puts on its NIC for flow id: the data segments in
// send order and the number of probes.
func tap(env *transport.Env, id uint64) (*[]sentRec, *int) {
	var sent []sentRec
	probes := 0
	netem.InstrumentPorts([]*netem.Port{env.Net.Host(0).NIC}, netem.TraceFunc(
		func(_ sim.Time, _ netem.TraceEvent, _ string, p *netem.Packet) {
			switch {
			case p.Flow != id:
			case p.Type == netem.Probe:
				probes++
			case p.Type == netem.Data:
				sent = append(sent, sentRec{int(p.Seq / int64(env.MSS)), p.Scheduled})
			}
		}))
	return &sent, &probes
}

func TestPreCreditBurstsBDPAtLineRate(t *testing.T) {
	env, pc, sent, probes := harness(t, 1<<20, DefaultOptions())
	bdpSegs := int(env.Net.BDPBytes()) / env.MSS
	if pc.BurstLimit() != bdpSegs {
		t.Fatalf("BurstLimit = %d, want %d", pc.BurstLimit(), bdpSegs)
	}
	pc.Start()
	env.Eng.Run()
	if len(*sent) != bdpSegs {
		t.Fatalf("burst %d segments, want %d", len(*sent), bdpSegs)
	}
	for i, s := range *sent {
		if s.seg != i || s.scheduled {
			t.Fatalf("burst packet %d = %+v, want unscheduled seg %d", i, s, i)
		}
	}
	// One probe ends the burst; nothing ever answers in this harness, so the
	// default-on §6 safety timer then resends to its cap.
	if want := 1 + DefaultOptions().MaxProbeResends; *probes != want {
		t.Fatalf("probes = %d, want %d (end of burst + safety resends)", *probes, want)
	}
	// The burst is paced at line rate: the last send happens one tx-gap per
	// segment after the start.
	wantSpan := sim.Duration(bdpSegs-1) * sim.TxTime(1538, env.Net.HostRate)
	if got := sim.Duration(env.Eng.Now()); got < wantSpan {
		t.Fatalf("burst finished too fast: %v < %v", got, wantSpan)
	}
}

func TestPreCreditSmallFlowBurstsEverything(t *testing.T) {
	_, pc, sent, probes := harness(t, 3000, DefaultOptions())
	pc.Start()
	pc.Env.Eng.Run()
	if len(*sent) != 3 { // 1460+1460+80
		t.Fatalf("sent %d segments, want 3", len(*sent))
	}
	if want := 1 + DefaultOptions().MaxProbeResends; *probes != want {
		t.Fatalf("probes = %d, want %d (end of burst + safety resends)", *probes, want)
	}
	// ProbeSeq is clamped to the flow size (the last segment is partial).
	if pc.ProbeSeq() != 3000 {
		t.Fatalf("ProbeSeq = %d, want 3000", pc.ProbeSeq())
	}
}

func TestPreCreditStopBurst(t *testing.T) {
	env, pc, sent, probes := harness(t, 1<<20, DefaultOptions())
	pc.Start()
	// Stop after ~3 segment times.
	env.Eng.At(sim.Time(3*sim.TxTime(1538, env.Net.HostRate))+1, pc.StopBurst)
	env.Eng.Run()
	if len(*sent) >= pc.BurstLimit() {
		t.Fatalf("burst did not stop: sent %d of limit %d", len(*sent), pc.BurstLimit())
	}
	if !pc.Stopped() {
		t.Fatal("not stopped")
	}
	if *probes != 1 {
		t.Fatalf("probes = %d, want 1 (probe still sent after early stop)", *probes)
	}
	if pc.ProbeSeq() != pc.Seg.Offset(pc.BurstSent()) {
		t.Fatal("probe seq mismatch after early stop")
	}
}

func TestPreCreditDisabledSkipsBurst(t *testing.T) {
	_, pc, sent, probes := harness(t, 1<<20, Options{Enabled: false})
	pc.Start()
	pc.Env.Eng.Run()
	if len(*sent) != 0 || *probes != 0 {
		t.Fatalf("disabled pre-credit sent %d segs, %d probes", len(*sent), *probes)
	}
	// All payload must flow through ClassUnsent.
	seg, class := pc.Next()
	if seg != 0 || class != ClassUnsent {
		t.Fatalf("first Next = (%d, %v), want (0, ClassUnsent)", seg, class)
	}
}

func TestPreCreditLossDetectionAndOrdering(t *testing.T) {
	env, pc, sent, _ := harness(t, 20*1460, DefaultOptions())
	// Force a small burst window: use bdp for 4 segments.
	pc = newPreCredit(env, pc.Flow, DefaultOptions(), 4*1460)
	pc.Start()
	env.Eng.Run()
	if len(*sent) != 4 {
		t.Fatalf("burst = %d, want 4", len(*sent))
	}

	// Segments 0 and 2 ACKed, 1 and 3 lost.
	pc.OnAck(pc.Seg.Offset(0))
	pc.OnAck(pc.Seg.Offset(2))
	if n := pc.OnProbeAck(); n != 2 {
		t.Fatalf("detected %d losses, want 2", n)
	}

	// §3.3 order: lost (1, 3) first, then unsent (4, 5, ...).
	wantOrder := []struct {
		seg   int
		class RetxClass
	}{{1, ClassLost}, {3, ClassLost}, {4, ClassUnsent}, {5, ClassUnsent}}
	for _, w := range wantOrder {
		seg, class := pc.Next()
		if seg != w.seg || class != w.class {
			t.Fatalf("Next = (%d, %v), want (%d, %v)", seg, class, w.seg, w.class)
		}
	}
}

func TestPreCreditHoldsClass3WhileProbePending(t *testing.T) {
	env, _, _, _ := harness(t, 4*1460, DefaultOptions())
	f := &transport.Flow{ID: 2, Src: 0, Dst: 1, Size: 4 * 1460}
	pc := newPreCredit(env, f, DefaultOptions(), 4*1460)
	pc.Start()
	env.Eng.Run()

	// Probe sent but not yet acknowledged; seg 1 ACKed. A scheduled
	// opportunity must NOT be spent on blind class-3 duplicates while the
	// probe verdict is pending.
	pc.OnAck(pc.Seg.Offset(1))
	if seg, class := pc.Next(); class != ClassNone {
		t.Fatalf("Next = (%d, %v) while probe pending, want ClassNone", seg, class)
	}
	if pc.Done() {
		t.Fatal("Done() = true with unacked burst segments outstanding")
	}
	// The probe ACK converts the unacked remainder into loss verdicts.
	if n := pc.OnProbeAck(); n != 3 {
		t.Fatalf("losses = %d, want 3", n)
	}
	want := []int{0, 2, 3}
	for _, w := range want {
		seg, class := pc.Next()
		if seg != w || class != ClassLost {
			t.Fatalf("Next = (%d, %v), want (%d, ClassLost)", seg, class, w)
		}
	}
	if seg, class := pc.Next(); class != ClassNone {
		t.Fatalf("Next = (%d, %v), want ClassNone", seg, class)
	}
	if !pc.Done() {
		t.Fatal("Done() = false with everything assigned")
	}
}

func TestPreCreditAckRacesLossVerdict(t *testing.T) {
	env, _, _, _ := harness(t, 2*1460, DefaultOptions())
	f := &transport.Flow{ID: 3, Src: 0, Dst: 1, Size: 2 * 1460}
	pc := newPreCredit(env, f, DefaultOptions(), 4*1460)
	pc.Start()
	env.Eng.Run()
	pc.OnProbeAck() // both segments flagged lost
	pc.OnAck(pc.Seg.Offset(0))
	// Segment 0's ACK raced in: Next must skip it.
	seg, class := pc.Next()
	if seg != 1 || class != ClassLost {
		t.Fatalf("Next = (%d, %v), want (1, ClassLost)", seg, class)
	}
}

// TestPreCreditReleasesDrainedLossQueue checks that the pop emptying the
// loss queue drops its array, through Next and through NextLost alike, and
// that a stale entry popped last (its ACK raced the verdict) counts too.
func TestPreCreditReleasesDrainedLossQueue(t *testing.T) {
	env, _, _, _ := harness(t, 3*1460, DefaultOptions())
	f := &transport.Flow{ID: 6, Src: 0, Dst: 1, Size: 3 * 1460}
	pc := newPreCredit(env, f, DefaultOptions(), 3*1460)
	pc.Start()
	env.Eng.Run()
	if n := pc.OnProbeAck(); n != 3 {
		t.Fatalf("losses = %d, want 3", n)
	}
	if seg, class := pc.Next(); seg != 0 || class != ClassLost {
		t.Fatalf("Next = (%d, %v), want (0, ClassLost)", seg, class)
	}
	if pc.lost == nil {
		t.Fatal("loss queue released with two segments still queued")
	}
	if seg, ok := pc.NextLost(); seg != 1 || !ok {
		t.Fatalf("NextLost = (%d, %v), want (1, true)", seg, ok)
	}
	if seg, class := pc.Next(); seg != 2 || class != ClassLost {
		t.Fatalf("Next = (%d, %v), want (2, ClassLost)", seg, class)
	}
	if pc.lost != nil {
		t.Fatalf("drained loss queue keeps its array (cap %d)", cap(pc.lost))
	}

	pc.ForceLost(0)
	pc.ForceLost(1)
	pc.OnAck(pc.Seg.Offset(1))
	if seg, ok := pc.NextLost(); seg != 0 || !ok {
		t.Fatalf("NextLost = (%d, %v), want (0, true)", seg, ok)
	}
	if seg, ok := pc.NextLost(); ok {
		t.Fatalf("NextLost = (%d, true) on a stale entry, want false", seg)
	}
	if pc.lost != nil {
		t.Fatalf("loss queue drained past a stale entry keeps its array (cap %d)", cap(pc.lost))
	}
}

func TestPreCreditNoDoubleRetransmission(t *testing.T) {
	env, _, _, _ := harness(t, 3*1460, DefaultOptions())
	f := &transport.Flow{ID: 4, Src: 0, Dst: 1, Size: 3 * 1460}
	pc := newPreCredit(env, f, DefaultOptions(), 3*1460)
	pc.Start()
	env.Eng.Run()

	// A receiver-driven resend force-queues seg 0 ahead of the probe ACK.
	pc.ForceLost(0)
	if seg, class := pc.Next(); seg != 0 || class != ClassLost {
		t.Fatalf("Next = (%d, %v), want (0, ClassLost)", seg, class)
	}
	// The probe ACK then reports nothing ACKed: 1, 2 newly lost, 0 already
	// assigned and must not be queued again.
	if n := pc.OnProbeAck(); n != 2 {
		t.Fatalf("new losses = %d, want 2 (seg 0 already assigned)", n)
	}
	got := map[int]bool{}
	for {
		seg, class := pc.Next()
		if class == ClassNone {
			break
		}
		if got[seg] {
			t.Fatalf("segment %d retransmitted twice", seg)
		}
		got[seg] = true
	}
}

func TestPreCreditProbeSafetyTimer(t *testing.T) {
	env, _, _, _ := harness(t, 1460, Options{})
	f := &transport.Flow{ID: 5, Src: 0, Dst: 1, Size: 1460}
	opts := Options{Enabled: true, ThresholdBytes: DefaultThreshold,
		ProbeTimeout: 10 * sim.Microsecond, MaxProbeResends: 2}
	pc := newPreCredit(env, f, opts, 4*1460)
	_, probes := tap(env, f.ID)
	pc.Start()
	env.Eng.Run()
	// Initial probe + 2 resends (no ACK ever arrives).
	if *probes != 3 {
		t.Fatalf("probes = %d, want 3", *probes)
	}
}

func TestPreCreditProbeTimerCanceledByAck(t *testing.T) {
	env, _, _, _ := harness(t, 1460, Options{})
	f := &transport.Flow{ID: 6, Src: 0, Dst: 1, Size: 1460}
	opts := Options{Enabled: true, ProbeTimeout: 10 * sim.Microsecond, MaxProbeResends: 5}
	pc := newPreCredit(env, f, opts, 4*1460)
	_, probes := tap(env, f.ID)
	pc.Start()
	env.Eng.After(2*sim.Microsecond, func() {
		pc.OnAck(0)
		pc.OnProbeAck()
	})
	env.Eng.Run()
	if *probes != 1 {
		t.Fatalf("probes = %d, want 1 (timer canceled by probe ACK)", *probes)
	}
}

func TestMakeProbe(t *testing.T) {
	env := testEnv(t)
	f := &transport.Flow{ID: 7, Src: 0, Dst: 1, Size: 5000, PathID: 99}
	var probe *netem.Packet
	netem.InstrumentPorts([]*netem.Port{env.Net.Host(0).NIC}, netem.TraceFunc(
		func(_ sim.Time, _ netem.TraceEvent, _ string, p *netem.Packet) {
			if p.Type == netem.Probe && probe == nil {
				cp := *p
				probe = &cp
			}
		}))
	pc := newPreCredit(env, f, DefaultOptions(), 2*1460)
	pc.Start()
	env.Eng.Run()
	p := probe
	if p == nil {
		t.Fatal("no probe on host 0's NIC")
	}
	if p.Type != netem.Probe || !p.Scheduled || p.WireSize != netem.ProbeSize {
		t.Fatalf("bad probe %v", p)
	}
	if p.Meta != 5000 {
		t.Fatalf("probe Meta = %d, want flow size 5000", p.Meta)
	}
	if p.Seq != pc.ProbeSeq() || p.PathID != 99 {
		t.Fatalf("probe fields wrong: %v", p)
	}
}

// TestOraclePrioSchedFirstNeverDrops checks the oracle queue of the
// hypothetical baselines — netem's scheduled-first queue, unbounded — never
// drops and serves scheduled packets first.
func TestOraclePrioSchedFirstNeverDrops(t *testing.T) {
	q := netem.NewSchedFirstQueue(0)
	for i := 0; i < 1000; i++ {
		if q.Enqueue(&netem.Packet{Type: netem.Data, Flow: uint64(i), WireSize: 1538}, 0) != netem.Queued {
			t.Fatal("oracle queue dropped")
		}
	}
	s := &netem.Packet{Type: netem.Data, Flow: 9999, WireSize: 1538, Scheduled: true}
	q.Enqueue(s, 0)
	if got := q.Dequeue(0); got != s {
		t.Fatalf("scheduled packet not served first: %v", got)
	}
	if q.Backlog().Packets != 1000 {
		t.Fatalf("backlog = %d", q.Backlog().Packets)
	}
	if q.NextWake() != sim.MaxTime {
		t.Fatal("NextWake should be MaxTime")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if !o.Enabled || o.ThresholdBytes != 6<<10 {
		t.Fatalf("DefaultOptions = %+v", o)
	}
}

// TestPreCreditDoneSkipsStaleLostEntries is the regression for Done()
// reporting false forever when the loss queue held only entries whose
// segment had since been acknowledged: Next() skips those, so a transport
// polling Done() before spending an opportunity would burn credits on a
// finished flow indefinitely.
func TestPreCreditDoneSkipsStaleLostEntries(t *testing.T) {
	env, _, _, _ := harness(t, 2*1460, DefaultOptions())
	f := &transport.Flow{ID: 8, Src: 0, Dst: 1, Size: 2 * 1460}
	pc := newPreCredit(env, f, DefaultOptions(), 4*1460)
	pc.Start()
	env.Eng.Run()

	// The probe verdict flags both segments lost, then both ACKs race in:
	// the loss queue still holds two entries, but both are stale.
	pc.OnProbeAck()
	pc.OnAck(pc.Seg.Offset(0))
	pc.OnAck(pc.Seg.Offset(1))
	// Transports poll Done() before spending a credit on the flow — it must
	// see through the stale entries without needing a Next() call to drain
	// them first.
	if !pc.Done() {
		t.Fatal("Done() = false with only stale lost-queue entries remaining")
	}
	if seg, class := pc.Next(); class != ClassNone {
		t.Fatalf("Next = (%d, %v), want ClassNone", seg, class)
	}
}

// TestPreCreditProbeTimerStopsAfterOpportunity is the regression for the §6
// safety timer resending the probe even though scheduled opportunities were
// already arriving: the paper resends only "if no credit is received in a
// given duration".
func TestPreCreditProbeTimerStopsAfterOpportunity(t *testing.T) {
	env, _, _, _ := harness(t, 4*1460, Options{})
	f := &transport.Flow{ID: 9, Src: 0, Dst: 1, Size: 4 * 1460}
	opts := Options{Enabled: true, ProbeTimeout: 10 * sim.Microsecond, MaxProbeResends: 5}
	pc := newPreCredit(env, f, opts, 2*1460)
	_, probes := tap(env, f.ID)
	pc.Start()
	// A credit arrives before the timeout and is spent through Next; the
	// probe ACK itself is still in flight (not yet processed).
	env.Eng.After(5*sim.Microsecond, func() { pc.Next() })
	env.Eng.Run()
	if *probes != 1 {
		t.Fatalf("probes = %d, want 1 (credit arrival must stop the safety timer)", *probes)
	}
}

// The same guard through the StopBurst path: the first credit ends the
// burst, so the timer armed by the trailing probe must never fire.
func TestPreCreditProbeTimerStopsAfterStopBurst(t *testing.T) {
	env, _, _, _ := harness(t, 64*1460, Options{})
	f := &transport.Flow{ID: 10, Src: 0, Dst: 1, Size: 64 * 1460}
	opts := Options{Enabled: true, ProbeTimeout: 10 * sim.Microsecond, MaxProbeResends: 5}
	pc := newPreCredit(env, f, opts, 64*1460)
	_, probes := tap(env, f.ID)
	pc.Start()
	env.Eng.After(2*sim.Microsecond, pc.StopBurst)
	env.Eng.Run()
	if *probes != 1 {
		t.Fatalf("probes = %d, want 1 (StopBurst is a credit arrival)", *probes)
	}
}

func TestPreCreditAuditCleanLifecycle(t *testing.T) {
	env, _, _, _ := harness(t, 6*1460, DefaultOptions())
	f := &transport.Flow{ID: 11, Src: 0, Dst: 1, Size: 6 * 1460}
	pc := newPreCredit(env, f, DefaultOptions(), 3*1460)
	if err := pc.Audit(); err != nil {
		t.Fatalf("fresh: %v", err)
	}
	pc.Start()
	env.Eng.Run()
	pc.OnAck(pc.Seg.Offset(1))
	pc.OnProbeAck()
	if err := pc.Audit(); err != nil {
		t.Fatalf("after probe verdict: %v", err)
	}
	for {
		if _, class := pc.Next(); class == ClassNone {
			break
		}
	}
	for i := 0; i < pc.Seg.NumSegs(); i++ {
		pc.OnAck(pc.Seg.Offset(i))
	}
	if err := pc.Audit(); err != nil {
		t.Fatalf("completed: %v", err)
	}
	if !pc.Done() {
		t.Fatal("flow should be done")
	}
}

func TestPreCreditAuditDetectsCorruption(t *testing.T) {
	mk := func() *PreCredit {
		env := testEnv(t)
		f := &transport.Flow{ID: 12, Src: 0, Dst: 1, Size: 4 * 1460}
		pc := newPreCredit(env, f, DefaultOptions(), 2*1460)
		pc.Start()
		env.Eng.Run()
		return pc
	}
	cases := []struct {
		name    string
		corrupt func(pc *PreCredit)
	}{
		{"ack-count-drift", func(pc *PreCredit) { pc.ackCount = 3 }},
		{"burst-overrun", func(pc *PreCredit) { pc.burstSent = pc.burstLimit + 1 }},
		{"next-new-behind-burst", func(pc *PreCredit) { pc.nextNew = pc.burstSent - 1 }},
		{"scan-pointer-overrun", func(pc *PreCredit) { pc.unackedP = pc.burstSent + 1 }},
		{"lost-out-of-range", func(pc *PreCredit) { pc.lost = append(pc.lost, 99) }},
		{"lost-unassigned", func(pc *PreCredit) { pc.lost = append(pc.lost, 3) }},
		{"probe-acked-unsent", func(pc *PreCredit) { pc.probeSent = false; pc.probeAcked = true }},
	}
	for _, c := range cases {
		pc := mk()
		c.corrupt(pc)
		if err := pc.Audit(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

// TestOraclePrioAuditBacklog checks Queue.Audit covers the oracle queue: a
// mixed scheduled/unscheduled backlog audits clean, and a queued packet whose
// size changes behind the queue's back shows up as byte drift. The packet
// count is derived from the bands, so it cannot drift on its own.
func TestOraclePrioAuditBacklog(t *testing.T) {
	q := netem.NewSchedFirstQueue(0)
	u := &netem.Packet{Type: netem.Data, WireSize: 1538}
	q.Enqueue(u, 0)
	q.Enqueue(&netem.Packet{Type: netem.Data, WireSize: 1538, Scheduled: true}, 0)
	q.Enqueue(&netem.Packet{Type: netem.Data, WireSize: 1538, Scheduled: true}, 0)
	q.Dequeue(0)
	if err := q.Audit(); err != nil {
		t.Fatalf("clean oracle queue failed audit: %v", err)
	}
	if b := q.Backlog(); b.Packets != 2 || b.Bytes != 2*1538 {
		t.Fatalf("backlog = %+v, want 2 packets / %d bytes", b, 2*1538)
	}
	u.WireSize += 9
	if err := q.Audit(); err == nil {
		t.Fatal("oracle byte drift not detected")
	}
	u.WireSize -= 9
	if err := q.Audit(); err != nil {
		t.Fatalf("restored oracle queue failed audit: %v", err)
	}
}

// TestOraclePrioDropsReachDropTotals is the regression for the §5.5
// two-priority queue's tail drops being invisible to netem.DropTotals: the
// aggregation once had no case for a discipline outside the netem package,
// so the xpass+prio and oracle schemes always reported zero drops.
func TestOraclePrioDropsReachDropTotals(t *testing.T) {
	eng := sim.NewEngine()
	pt := netem.NewPort(eng, netem.NewSchedFirstQueue(2000), 10*sim.Gbps, sim.Microsecond, nil, "sw0->h0")
	ports := []*netem.Port{pt}
	// The first packet goes straight to the serializer, the second queues,
	// the third overflows the shared buffer.
	for i := 0; i < 3; i++ {
		pt.Send(&netem.Packet{Type: netem.Data, WireSize: 1538})
	}
	tot := netem.DropTotals(ports)
	if tot[netem.DropTailFull] != 1 {
		t.Fatalf("DropTotals = %v, want 1 tail drop", tot)
	}
	// And still visible once the port is instrumented.
	netem.InstrumentPorts(ports, netem.NewCountingTracer())
	pt.Send(&netem.Packet{Type: netem.Data, WireSize: 1538})
	if tot := netem.DropTotals(ports); tot[netem.DropTailFull] != 2 {
		t.Fatalf("DropTotals after instrumentation = %v, want 2", tot)
	}
}
