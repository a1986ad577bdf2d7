package homa

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// build creates a two-tier 100G leaf-spine (the Homa paper topology, scaled
// down) with the Homa fabric discipline.
func build(t *testing.T, opts Options, buffer int64) (*transport.Env, *Protocol) {
	t.Helper()
	eng := sim.NewEngine()
	net := netem.BuildClos(eng, netem.TopoSpec{HostsPerEdge: 4,
		Tiers:    []netem.TierSpec{{Switches: 4}, {Switches: 2}},
		HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond},
		QueueFactory(opts, buffer), 0)
	env := transport.NewEnv(net, netem.MaxPayload)
	return env, New(env, opts)
}

func oneFlow(src, dst int, size int64) []workload.FlowSpec {
	return []workload.FlowSpec{{ID: 1, Src: src, Dst: dst, Size: size, Start: sim.Time(sim.Microsecond)}}
}

func TestUnschedCutoffs(t *testing.T) {
	cut := UnschedCutoffs(workload.WebSearch, 60000, 4)
	if len(cut) != 4 {
		t.Fatalf("got %d cutoffs", len(cut))
	}
	for i := 1; i < 4; i++ {
		if cut[i] < cut[i-1] {
			t.Fatalf("cutoffs not monotone: %v", cut)
		}
	}
	// Everything must map somewhere; the largest flow to the last band.
	if PrioFor(cut, 1) != 0 {
		t.Fatalf("tiny message priority = %d, want 0", PrioFor(cut, 1))
	}
	if PrioFor(cut, 25e6) != 3 {
		t.Fatalf("huge message priority = %d, want 3", PrioFor(cut, 25e6))
	}
}

func TestUnschedCutoffsFallback(t *testing.T) {
	if got := UnschedCutoffs(workload.WebServer, 60000, 0); got != nil {
		t.Fatal("nPrios=0 should yield nil")
	}
}

func TestSingleSmallMessage(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, opts, netem.DefaultBuffer)
		done := transport.Runner(env, p, oneFlow(0, 5, 20_000), sim.Time(sim.Second))
		if done != 1 {
			t.Fatalf("aeolus=%v: message did not complete", aeolus)
		}
		fct := env.FCT.Records()[0].FCT()
		// A 20 KB message fits in the first window: ≈ one-way latency + tx.
		if fct > env.Net.BaseRTT {
			t.Fatalf("aeolus=%v: small message FCT %v > base RTT %v", aeolus, fct, env.Net.BaseRTT)
		}
	}
}

func TestSingleLargeMessageUsesGrants(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, opts, netem.DefaultBuffer)
		const size = 1_000_000
		done := transport.Runner(env, p, oneFlow(0, 5, size), sim.Time(sim.Second))
		if done != 1 {
			t.Fatalf("aeolus=%v: large message did not complete", aeolus)
		}
		if env.Meter.DeliveredPayload != size {
			t.Fatalf("aeolus=%v: delivered %d of %d", aeolus, env.Meter.DeliveredPayload, size)
		}
		// Uncontended: the message should flow continuously at ≈line rate;
		// FCT within 3x of ideal.
		rec := env.FCT.Records()[0]
		if rec.Slowdown() > 3 {
			t.Fatalf("aeolus=%v: slowdown %.2f for uncontended 1MB message", aeolus, rec.Slowdown())
		}
		if env.Meter.Efficiency() < 0.99 {
			t.Fatalf("aeolus=%v: efficiency %.3f uncontended", aeolus, env.Meter.Efficiency())
		}
	}
}

// TestMessageAllocsFlat gates the zero-allocation claim on the Homa path: a
// lone Homa+Aeolus message costs about as many allocations at 4 MB as at
// 200 KB, so nothing on the way (grant scheduling included) allocates per
// packet.
func TestMessageAllocsFlat(t *testing.T) {
	allocs := func(size int64) float64 {
		return testing.AllocsPerRun(1, func() {
			opts := DefaultOptions()
			opts.Aeolus.Enabled = true
			opts.Aeolus.ThresholdBytes = core.DefaultThreshold
			env, p := build(t, opts, netem.DefaultBuffer)
			if transport.Runner(env, p, oneFlow(0, 5, size), sim.Time(sim.Second)) != 1 {
				t.Fatalf("%d-byte message did not complete", size)
			}
		})
	}
	small, large := allocs(200_000), allocs(4_000_000)
	if large > small*1.1 {
		t.Errorf("a 4 MB message allocates %.0f objects, a 200 KB one %.0f: something allocates per packet", large, small)
	}
}

func TestIncastVanillaDropsScheduledAeolusDoesNot(t *testing.T) {
	// Heavy incast into one receiver with a small shared buffer: vanilla
	// Homa (unscheduled at high priority) must lose scheduled packets;
	// Homa+Aeolus must not.
	run := func(aeolus bool) (schedDrops, unschedDrops int, timeouts int, done int) {
		opts := DefaultOptions()
		opts.RTO = 10 * sim.Millisecond
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, opts, 500<<10)
		netem.InstrumentPorts(env.Net.SwitchPorts(), netem.TraceFunc(func(_ sim.Time, ev netem.TraceEvent, _ string, pkt *netem.Packet) {
			if ev != netem.TraceDrop || pkt.Type != netem.Data {
				return
			}
			if pkt.Scheduled {
				schedDrops++
			} else {
				unschedDrops++
			}
		}))
		trace := (&workload.IncastConfig{
			Fanin: 15, Receiver: 0, Hosts: 16, MsgSize: 200_000, Seed: 5,
			StartAt: sim.Time(sim.Microsecond),
		}).Generate()
		done = transport.Runner(env, p, trace, sim.Time(sim.Second))
		timeouts = env.FCT.TimeoutFlows()
		return
	}
	vs, vu, _, vdone := run(false)
	as, au, atim, adone := run(true)
	if vdone != 15 || adone != 15 {
		t.Fatalf("completions: vanilla %d, aeolus %d, want 15", vdone, adone)
	}
	if vs+vu == 0 {
		t.Fatal("vanilla incast produced no drops; test not stressful enough")
	}
	if as != 0 {
		t.Fatalf("Homa+Aeolus dropped %d scheduled packets", as)
	}
	if au == 0 {
		t.Fatal("Homa+Aeolus dropped no unscheduled packets under 15:1 incast")
	}
	if atim != 0 {
		t.Fatalf("Homa+Aeolus had %d timeout flows, want 0", atim)
	}
}

func TestAeolusTailBeatsVanillaUnderIncast(t *testing.T) {
	run := func(aeolus bool) sim.Duration {
		opts := DefaultOptions()
		opts.RTO = 10 * sim.Millisecond
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, opts, 500<<10)
		trace := (&workload.IncastConfig{
			Fanin: 15, Receiver: 0, Hosts: 16, MsgSize: 200_000, Seed: 6,
			StartAt: sim.Time(sim.Microsecond),
		}).Generate()
		if done := transport.Runner(env, p, trace, sim.Time(2*sim.Second)); done != 15 {
			t.Fatalf("aeolus=%v: %d done", aeolus, done)
		}
		return env.FCT.Records()[0].FCT() // any; use max below
	}
	maxFCT := func(aeolus bool) sim.Duration {
		opts := DefaultOptions()
		opts.RTO = 10 * sim.Millisecond
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, opts, 500<<10)
		trace := (&workload.IncastConfig{
			Fanin: 15, Receiver: 0, Hosts: 16, MsgSize: 200_000, Seed: 6,
			StartAt: sim.Time(sim.Microsecond),
		}).Generate()
		transport.Runner(env, p, trace, sim.Time(2*sim.Second))
		var mx sim.Duration
		for _, r := range env.FCT.Records() {
			if r.FCT() > mx {
				mx = r.FCT()
			}
		}
		return mx
	}
	_ = run
	v, a := maxFCT(false), maxFCT(true)
	if a >= v {
		t.Fatalf("Homa+Aeolus tail %v not better than vanilla %v", a, v)
	}
	// Vanilla tail is RTO-bound (≥10ms); Aeolus tail should be RTT-scale.
	if v < 10*sim.Millisecond {
		t.Fatalf("vanilla tail %v < RTO; no timeout was suffered", v)
	}
	if a > 2*sim.Millisecond {
		t.Fatalf("Aeolus tail %v should be far below the RTO", a)
	}
}

func TestManyMessagesComplete(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	opts.Workload = workload.WebServer
	env, p := build(t, opts, netem.DefaultBuffer)
	trace := (&workload.PoissonConfig{
		CDF: workload.WebServer, Hosts: 16, HostRate: 100 * sim.Gbps,
		Load: 0.4, Flows: 300, Seed: 7, StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	done := transport.Runner(env, p, trace, sim.Time(sim.Second))
	if done != 300 {
		t.Fatalf("completed %d of 300", done)
	}
	// Table 3's reference point: even hypothetical Homa only reaches 0.90
	// transfer efficiency; Aeolus should be in that neighborhood.
	if eff := env.Meter.Efficiency(); eff < 0.75 {
		t.Fatalf("efficiency %.3f", eff)
	}
}

func TestVanillaHomaResendAfterTimeout(t *testing.T) {
	// Force unscheduled loss in vanilla Homa by a deep incast with tiny
	// buffer, then verify RTO-driven recovery completes all messages.
	opts := DefaultOptions()
	opts.RTO = 100 * sim.Microsecond
	env, p := build(t, opts, 30<<10)
	trace := (&workload.IncastConfig{
		Fanin: 10, Receiver: 0, Hosts: 16, MsgSize: 60_000, Seed: 8,
		StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	done := transport.Runner(env, p, trace, sim.Time(2*sim.Second))
	if done != 10 {
		t.Fatalf("completed %d of 10 after timeouts", done)
	}
	if env.FCT.TimeoutFlows() == 0 {
		t.Fatal("expected at least one timeout flow in this stress")
	}
}

func TestGrantPriorityMapping(t *testing.T) {
	opts := DefaultOptions()
	env, p := build(t, opts, netem.DefaultBuffer)
	// Observe grants on the wire: priorities must lie in the scheduled
	// bands [UnschedPrios, NumPrios).
	grantPrios := map[int64]bool{}
	for _, h := range env.Net.Hosts {
		inner := h.EP
		h.EP = epSpy{inner: inner, onPkt: func(pkt *netem.Packet) {
			if pkt.Type == netem.Grant {
				grantPrios[pkt.Meta] = true
			}
		}}
	}
	var trace []workload.FlowSpec
	for i := 0; i < 8; i++ {
		trace = append(trace, workload.FlowSpec{
			ID: uint64(i + 1), Src: i + 1, Dst: 0, Size: 500_000,
			Start: sim.Time(sim.Microsecond),
		})
	}
	transport.Runner(env, p, trace, sim.Time(sim.Second))
	if len(grantPrios) == 0 {
		t.Fatal("no grants observed")
	}
	for prio := range grantPrios {
		if prio < int64(opts.UnschedPrios) || prio >= int64(opts.NumPrios) {
			t.Fatalf("grant priority %d outside scheduled bands", prio)
		}
	}
	_ = p
}

// epSpy wraps a host's endpoint: it hands every packet the host receives
// to onPkt once the endpoint has taken it.
type epSpy struct {
	inner netem.Endpoint
	onPkt func(*netem.Packet)
}

func (s epSpy) Receive(p *netem.Packet) {
	s.inner.Receive(p)
	s.onPkt(p)
}

// TestActiveListIsTheGrantSet checks each host's active list against the
// set a scan over every message the host has seen would build: after every
// data or probe delivery, the host's list holds exactly the incomplete
// messages that are longer than the unscheduled window or whose burst has
// begun arriving. The run is a homa+aeolus incast of short and long
// messages into host 0, staggered so that they overlap and selective drops
// occur, plus two messages into host 5; after it every list is empty.
func TestActiveListIsTheGrantSet(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, opts, netem.DefaultBuffer)
	drops := 0
	netem.InstrumentPorts(env.Net.SwitchPorts(), netem.TraceFunc(func(_ sim.Time, ev netem.TraceEvent, _ string, pkt *netem.Packet) {
		if ev == netem.TraceDrop && pkt.Type == netem.Data && !pkt.Scheduled {
			drops++
		}
	}))
	var trace []workload.FlowSpec
	sizes := []int64{3_000, 20_000, 200_000, 1_000_000}
	for i := 0; i < 12; i++ {
		trace = append(trace, workload.FlowSpec{
			ID: uint64(i + 1), Src: i + 1, Dst: 0, Size: sizes[i%len(sizes)],
			Start: sim.Time(sim.Microsecond) + sim.Time(i)*sim.Time(2*sim.Microsecond),
		})
	}
	trace = append(trace,
		workload.FlowSpec{ID: 13, Src: 13, Dst: 5, Size: 20_000, Start: sim.Time(sim.Microsecond)},
		workload.FlowSpec{ID: 14, Src: 14, Dst: 5, Size: 500_000, Start: sim.Time(sim.Microsecond)})
	checks, mixed := 0, 0
	for _, h := range env.Net.Hosts {
		h.EP = epSpy{inner: h.EP, onPkt: func(pkt *netem.Packet) {
			if pkt.Type != netem.Data && pkt.Type != netem.Probe {
				return
			}
			checks++
			want := map[*rxMsg]bool{}
			short, long := false, false
			for _, f := range trace {
				m := p.Receiver(f.ID)
				if f.Dst != int(pkt.Dst) || m == nil || m.rx.Done {
					continue
				}
				if m.rx.Flow.Size > p.rttBytes {
					want[m], long = true, true
				} else if m.burstEnd > 0 {
					want[m], short = true, true
				}
			}
			if short && long {
				mixed++
			}
			active := p.rxHosts[pkt.Dst].active
			got := map[*rxMsg]bool{}
			for _, m := range active {
				got[m] = true
			}
			if len(got) != len(active) || len(got) != len(want) {
				t.Fatalf("host %d after flow %d's %v: active list holds %d messages (%d distinct), want %d",
					pkt.Dst, pkt.Flow, pkt.Type, len(active), len(got), len(want))
			}
			for m := range want {
				if !got[m] {
					t.Fatalf("host %d after flow %d's %v: flow %d needs grants but is not on the active list",
						pkt.Dst, pkt.Flow, pkt.Type, m.rx.Flow.ID)
				}
			}
		}}
	}
	if done := transport.Runner(env, p, trace, sim.Time(sim.Second)); done != len(trace) {
		t.Fatalf("completed %d of %d", done, len(trace))
	}
	for id := range p.rxHosts {
		if n := len(p.rxHosts[id].active); n != 0 {
			t.Errorf("host %d keeps %d messages on its active list after every message completed", id, n)
		}
	}
	if drops == 0 || mixed == 0 {
		t.Fatalf("%d selective drops, %d checks with short and long messages both active (of %d): the run does not exercise the list",
			drops, mixed, checks)
	}
}

// TestLateDuplicateDoesNotResurrectMessage is the regression test for the
// ghost-state bug: a duplicate data packet arriving after a message
// completed must hit the tombstoned entry, not recreate the message, arm a
// new RTO and trigger an endless resend storm.
func TestLateDuplicateDoesNotResurrectMessage(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, opts, netem.DefaultBuffer)
	done := transport.Runner(env, p, oneFlow(0, 5, 20_000), sim.Time(sim.Second))
	if done != 1 {
		t.Fatal("flow did not complete")
	}
	// Drain the events that were still pending when the runner stopped.
	env.Eng.RunUntil(env.Eng.Now().Add(10 * sim.Millisecond))
	// Replay a duplicate of the first segment directly into the receiver.
	before := p.Footprint().Receivers
	p.Receive(&netem.Packet{
		Type: netem.Data, Flow: 1, Src: 0, Dst: 5,
		Seq: 0, PayloadLen: 1460, WireSize: netem.WireSizeFor(1460),
	})
	if after := p.Footprint().Receivers; after != before {
		t.Fatalf("duplicate resurrected message state: %d -> %d entries", before, after)
	}
	m := p.Receiver(1)
	if m == nil || !m.rx.Done {
		t.Fatal("tombstone missing or not done")
	}
	if m.rx.RTO.Pending() {
		t.Fatal("ghost RTO armed by duplicate")
	}
	// And the engine must quiesce without generating fresh traffic.
	fired := env.Eng.Fired()
	env.Eng.RunUntil(env.Eng.Now().Add(50 * sim.Millisecond))
	if env.Eng.Fired() > fired+4 {
		t.Fatalf("duplicate spawned %d new events", env.Eng.Fired()-fired)
	}
}

// TestWirePriorities checks the bands a Homa+Aeolus sender puts its packets
// on: burst data carry the message's unscheduled priority from the cutoffs,
// scheduled data the level of the latest grant the sender received, inside
// the scheduled bands, and probes ride band 0.
func TestWirePriorities(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, opts, netem.DefaultBuffer)
	grants := map[uint64]uint8{} // latest grant level per flow, as delivered
	netem.InstrumentHosts(env.Net.Hosts, netem.TraceFunc(func(_ sim.Time, _ netem.TraceEvent, _ string, pkt *netem.Packet) {
		if pkt.Type == netem.Grant {
			grants[pkt.Flow] = uint8(pkt.Meta)
		}
	}))
	unsched := map[uint8]int{}
	sched, probes := 0, 0
	var nics []*netem.Port
	for _, h := range env.Net.Hosts {
		nics = append(nics, h.NIC)
	}
	netem.InstrumentPorts(nics, netem.TraceFunc(func(_ sim.Time, _ netem.TraceEvent, _ string, pkt *netem.Packet) {
		switch {
		case pkt.Type == netem.Probe:
			probes++
			if pkt.Prio != 0 {
				t.Errorf("flow %d: probe on band %d, want 0", pkt.Flow, pkt.Prio)
			}
		case pkt.Type != netem.Data:
		case !pkt.Scheduled:
			unsched[pkt.Prio]++
			if want := PrioFor(p.cutoffs, p.Flow(pkt.Flow).Size); pkt.Prio != want {
				t.Errorf("flow %d: unscheduled data on band %d, want %d", pkt.Flow, pkt.Prio, want)
			}
		default:
			sched++
			g, ok := grants[pkt.Flow]
			if !ok || pkt.Prio != g {
				t.Errorf("flow %d: scheduled data on band %d, latest grant %d (received %v)", pkt.Flow, pkt.Prio, g, ok)
			}
			if int(pkt.Prio) < opts.UnschedPrios || int(pkt.Prio) >= opts.NumPrios {
				t.Errorf("flow %d: scheduled data on band %d, outside [%d, %d)", pkt.Flow, pkt.Prio, opts.UnschedPrios, opts.NumPrios)
			}
		}
	}))
	var trace []workload.FlowSpec
	for i, size := range []int64{3_000, 40_000, 200_000, 1_000_000, 3_000, 40_000, 200_000, 1_000_000} {
		trace = append(trace, workload.FlowSpec{
			ID: uint64(i + 1), Src: i + 1, Dst: 0, Size: size,
			Start: sim.Time(sim.Microsecond),
		})
	}
	if done := transport.Runner(env, p, trace, sim.Time(sim.Second)); done != len(trace) {
		t.Fatalf("completed %d of %d", done, len(trace))
	}
	if len(unsched) < 2 || sched == 0 || probes == 0 {
		t.Fatalf("saw unscheduled bands %v, %d scheduled data, %d probes: the run does not exercise every rule", unsched, sched, probes)
	}
}
