package ndp

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

func build(t *testing.T, opts Options) (*transport.Env, *Protocol) {
	t.Helper()
	eng := sim.NewEngine()
	net := netem.BuildClos(eng, netem.TopoSpec{HostsPerEdge: 4,
		Tiers:    []netem.TierSpec{{Switches: 4}, {Switches: 2}},
		HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond},
		QueueFactory(opts, netem.DefaultBuffer), 0)
	env := transport.NewEnv(net, MSS)
	return env, New(env, opts)
}

func oneFlow(src, dst int, size int64) []workload.FlowSpec {
	return []workload.FlowSpec{{ID: 1, Src: src, Dst: dst, Size: size, Start: sim.Time(sim.Microsecond)}}
}

func TestSingleFlowCompletes(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = 4 * netem.JumboMTU // jumbo-frame threshold
		env, p := build(t, opts)
		done := transport.Runner(env, p, oneFlow(0, 9, 40_000), sim.Time(sim.Second))
		if done != 1 {
			t.Fatalf("aeolus=%v: flow did not complete", aeolus)
		}
		// The flow fits the first window: no pull round-trip, so FCT is the
		// ideal one-way streaming time plus jumbo store-and-forward per hop.
		rec := env.FCT.Records()[0]
		if rec.Slowdown() > 2 {
			t.Fatalf("aeolus=%v: first-window flow slowdown %.2f (FCT %v)", aeolus, rec.Slowdown(), rec.FCT())
		}
	}
}

func TestLargeFlowPullPaced(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = 4 * netem.JumboMTU
		env, p := build(t, opts)
		const size = 3_000_000
		done := transport.Runner(env, p, oneFlow(0, 9, size), sim.Time(sim.Second))
		if done != 1 {
			t.Fatalf("aeolus=%v: flow did not complete", aeolus)
		}
		if env.Meter.DeliveredPayload != size {
			t.Fatalf("aeolus=%v: delivered %d", aeolus, env.Meter.DeliveredPayload)
		}
		rec := env.FCT.Records()[0]
		if rec.Slowdown() > 3 {
			t.Fatalf("aeolus=%v: slowdown %.2f uncontended", aeolus, rec.Slowdown())
		}
	}
}

func TestIncastTrimsButDelivers(t *testing.T) {
	opts := DefaultOptions()
	env, p := build(t, opts)
	trimmed := 0
	netem.InstrumentPorts(env.Net.SwitchPorts(), netem.TraceFunc(func(_ sim.Time, ev netem.TraceEvent, _ string, _ *netem.Packet) {
		if ev == netem.TraceTrim {
			trimmed++
		}
	}))
	trace := (&workload.IncastConfig{
		Fanin: 15, Receiver: 0, Hosts: 16, MsgSize: 150_000, Seed: 11,
		StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	done := transport.Runner(env, p, trace, sim.Time(sim.Second))
	if done != 15 {
		t.Fatalf("completed %d of 15", done)
	}
	if trimmed == 0 {
		t.Fatal("15:1 jumbo incast trimmed nothing")
	}
	// Trimming (not drops) means efficiency stays decent despite incast.
	if eff := env.Meter.Efficiency(); eff < 0.5 {
		t.Fatalf("efficiency %.3f", eff)
	}
}

func TestAeolusIncastDropsInsteadOfTrims(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	opts.Aeolus.ThresholdBytes = 4 * netem.JumboMTU
	env, p := build(t, opts)
	schedDrops, trimmed := 0, 0
	netem.InstrumentPorts(env.Net.SwitchPorts(), netem.TraceFunc(func(_ sim.Time, ev netem.TraceEvent, _ string, pkt *netem.Packet) {
		switch {
		case ev == netem.TraceTrim:
			trimmed++
		case ev == netem.TraceDrop && pkt.Type == netem.Data && pkt.Scheduled:
			schedDrops++
		}
	}))
	trace := (&workload.IncastConfig{
		Fanin: 15, Receiver: 0, Hosts: 16, MsgSize: 150_000, Seed: 12,
		StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	done := transport.Runner(env, p, trace, sim.Time(sim.Second))
	if done != 15 {
		t.Fatalf("completed %d of 15", done)
	}
	if trimmed != 0 {
		t.Fatalf("NDP+Aeolus trimmed %d packets; trimming must be off", trimmed)
	}
	if schedDrops != 0 {
		t.Fatalf("NDP+Aeolus dropped %d scheduled packets", schedDrops)
	}
}

func TestSprayUsesMultiplePaths(t *testing.T) {
	opts := DefaultOptions()
	env, p := build(t, opts)
	transport.Runner(env, p, oneFlow(0, 15, 2_000_000), sim.Time(sim.Second))
	// Both spines must have carried data of this single flow.
	spinesUsed := 0
	for _, sw := range env.Net.Switches {
		if sw.Label[0] != 's' { // spines are labeled spineN
			continue
		}
		var tx uint64
		for _, pt := range sw.Ports {
			tx += pt.TxPackets
		}
		if tx > 0 {
			spinesUsed++
		}
	}
	if spinesUsed < 2 {
		t.Fatalf("per-packet spraying used %d spines, want ≥2", spinesUsed)
	}
}

func TestNoSprayUsesOnePath(t *testing.T) {
	opts := DefaultOptions()
	opts.Spray = false
	env, p := build(t, opts)
	transport.Runner(env, p, oneFlow(0, 15, 2_000_000), sim.Time(sim.Second))
	spinesUsed := 0
	for _, sw := range env.Net.Switches {
		if sw.Label[0] != 's' {
			continue
		}
		var tx uint64
		for _, pt := range sw.Ports {
			tx += pt.TxPackets
		}
		if tx > 0 {
			spinesUsed++
		}
	}
	if spinesUsed != 1 {
		t.Fatalf("per-flow ECMP used %d spines, want 1", spinesUsed)
	}
}

func TestPoissonMixCompletes(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = 4 * netem.JumboMTU
		env, p := build(t, opts)
		trace := (&workload.PoissonConfig{
			CDF: workload.WebSearch, Hosts: 16, HostRate: 100 * sim.Gbps,
			Load: 0.4, Flows: 200, Seed: 13, StartAt: sim.Time(sim.Microsecond),
		}).Generate()
		done := transport.Runner(env, p, trace, sim.Time(2*sim.Second))
		if done != 200 {
			t.Fatalf("aeolus=%v: completed %d of 200", aeolus, done)
		}
	}
}
