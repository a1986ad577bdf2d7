package expresspass

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// build creates a single-switch 10G testbed network with the ExpressPass
// fabric discipline.
func build(t *testing.T, hosts int, opts Options) (*transport.Env, *Protocol) {
	t.Helper()
	eng := sim.NewEngine()
	net := netem.BuildClos(eng, netem.TopoSpec{HostsPerEdge: hosts, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: 3 * sim.Microsecond},
		QdiscFactory(opts, netem.DefaultBuffer), 0)
	env := transport.NewEnv(net, netem.MaxPayload)
	return env, New(env, opts)
}

func runTrace(env *transport.Env, p *Protocol, trace []workload.FlowSpec) int {
	return transport.Runner(env, p, trace, sim.Time(2*sim.Second))
}

func oneFlow(src, dst int, size int64) []workload.FlowSpec {
	return []workload.FlowSpec{{ID: 1, Src: src, Dst: dst, Size: size, Start: sim.Time(sim.Microsecond)}}
}

func TestSingleFlowCompletes(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, 2, opts)
		done := runTrace(env, p, oneFlow(0, 1, 100_000))
		if done != 1 {
			t.Fatalf("aeolus=%v: completed %d flows, want 1", aeolus, done)
		}
		rec := env.FCT.Records()[0]
		if rec.FCT() <= 0 || rec.FCT() > sim.Duration(10*sim.Millisecond) {
			t.Fatalf("aeolus=%v: FCT = %v", aeolus, rec.FCT())
		}
		if env.Meter.DeliveredPayload != 100_000 {
			t.Fatalf("aeolus=%v: delivered %d bytes", aeolus, env.Meter.DeliveredPayload)
		}
	}
}

func TestVanillaWaitsFullRTT(t *testing.T) {
	// A small flow under vanilla ExpressPass cannot beat ~1.5 RTT: request
	// travels one way, credits come back, then data flows.
	opts := DefaultOptions()
	env, p := build(t, 2, opts)
	runTrace(env, p, oneFlow(0, 1, 3000))
	fct := env.FCT.Records()[0].FCT()
	if fct < env.Net.BaseRTT {
		t.Fatalf("vanilla small-flow FCT %v < base RTT %v — it cannot be", fct, env.Net.BaseRTT)
	}
}

func TestAeolusFinishesSmallFlowInFirstRTT(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 2, opts)
	runTrace(env, p, oneFlow(0, 1, 3000))
	fct := env.FCT.Records()[0].FCT()
	if fct > env.Net.BaseRTT {
		t.Fatalf("Aeolus small-flow FCT %v > base RTT %v", fct, env.Net.BaseRTT)
	}
}

func TestAeolusBeatsVanillaOnSmallFlows(t *testing.T) {
	measure := func(aeolus bool) sim.Duration {
		opts := DefaultOptions()
		if aeolus {
			opts.Aeolus = core.DefaultOptions()
		}
		env, p := build(t, 2, opts)
		runTrace(env, p, oneFlow(0, 1, 50_000))
		return env.FCT.Records()[0].FCT()
	}
	v, a := measure(false), measure(true)
	if a >= v {
		t.Fatalf("Aeolus FCT %v not better than vanilla %v", a, v)
	}
}

func TestLargeFlowMultipleRTTs(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 2, opts)
	const size = 2_000_000
	done := runTrace(env, p, oneFlow(0, 1, size))
	if done != 1 {
		t.Fatal("large flow did not complete")
	}
	if env.Meter.DeliveredPayload != size {
		t.Fatalf("delivered %d, want %d", env.Meter.DeliveredPayload, size)
	}
	// Efficiency should be near 1: selective drops only affect the BDP
	// burst and the path is uncontended.
	if eff := env.Meter.Efficiency(); eff < 0.95 {
		t.Fatalf("efficiency = %.3f", eff)
	}
}

func TestIncastAllComplete(t *testing.T) {
	for _, aeolus := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Aeolus.Enabled = aeolus
		opts.Aeolus.ThresholdBytes = core.DefaultThreshold
		env, p := build(t, 8, opts)
		trace := (&workload.IncastConfig{
			Fanin: 7, Receiver: 0, Hosts: 8, MsgSize: 30_000, Seed: 1,
			StartAt: sim.Time(sim.Microsecond),
		}).Generate()
		done := runTrace(env, p, trace)
		if done != 7 {
			t.Fatalf("aeolus=%v: %d of 7 incast flows completed", aeolus, done)
		}
		if env.Meter.DeliveredPayload != 7*30_000 {
			t.Fatalf("aeolus=%v: delivered %d", aeolus, env.Meter.DeliveredPayload)
		}
	}
}

func TestScheduledNeverDroppedUnderAeolus(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 8, opts)
	trace := (&workload.IncastConfig{
		Fanin: 7, Receiver: 0, Hosts: 8, MsgSize: 100_000, Seed: 2,
		StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	dropped := 0
	netem.InstrumentPorts(env.Net.SwitchPorts(), netem.TraceFunc(func(_ sim.Time, ev netem.TraceEvent, _ string, pkt *netem.Packet) {
		if ev == netem.TraceDrop && (pkt.Scheduled || pkt.Type.IsControl()) {
			dropped++
		}
	}))
	runTrace(env, p, trace)
	if dropped != 0 {
		t.Fatalf("%d scheduled/control packets dropped — SPF violated", dropped)
	}
}

func TestCreditFeedbackRampsUp(t *testing.T) {
	// A long uncontended flow should push the credit rate well above the
	// 1/16 initial rate, completing much faster than at the initial rate.
	opts := DefaultOptions()
	env, p := build(t, 2, opts)
	const size = 4_000_000
	runTrace(env, p, oneFlow(0, 1, size))
	fct := env.FCT.Records()[0].FCT()
	// At a fixed 1/16 rate the flow would take size*8/(10G/16) ≈ 51 ms.
	atInit := sim.Duration(float64(size*8) / (float64(10*sim.Gbps) / 16) * float64(sim.Second))
	if fct > atInit/4 {
		t.Fatalf("FCT %v suggests the feedback loop never ramped (1/16-rate bound %v)", fct, atInit)
	}
}

func TestPoissonMixCompletes(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 8, opts)
	trace := (&workload.PoissonConfig{
		CDF: workload.WebServer, Hosts: 8, HostRate: 10 * sim.Gbps,
		Load: 0.3, Flows: 200, Seed: 3, StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	done := transport.Runner(env, p, trace, sim.Time(5*sim.Second))
	if done != 200 {
		t.Fatalf("completed %d of 200 flows", done)
	}
	if eff := env.Meter.Efficiency(); eff < 0.8 {
		t.Fatalf("efficiency = %.3f", eff)
	}
}

func TestWastedCreditsBounded(t *testing.T) {
	opts := DefaultOptions()
	env, p := build(t, 2, opts)
	runTrace(env, p, oneFlow(0, 1, 100_000))
	// Credit-stop should bound waste to roughly one RTT of credits.
	if p.WastedCredits > 100 {
		t.Fatalf("wasted credits = %d, credit stop not working", p.WastedCredits)
	}
}

// TestCreditFeedbackBacksOffUnderContention pins the other half of the
// feedback loop: when many flows share one bottleneck, per-flow credit
// rates must converge well below line rate (credit drops at the shaped
// credit queues signal the over-allocation).
func TestCreditFeedbackBacksOffUnderContention(t *testing.T) {
	opts := DefaultOptions()
	env, p := build(t, 8, opts)
	// 6 long flows into one receiver.
	var trace []workload.FlowSpec
	for i := 0; i < 6; i++ {
		trace = append(trace, workload.FlowSpec{
			ID: uint64(i + 1), Src: i + 1, Dst: 0, Size: 1_000_000,
			Start: sim.Time(sim.Microsecond),
		})
	}
	done := transport.Runner(env, p, trace, sim.Time(5*sim.Second))
	if done != 6 {
		t.Fatalf("completed %d of 6", done)
	}
	// The shared bottleneck must never overflow: scheduled data stays
	// credit-paced, so the aggregate converges to the link share without
	// tail drops (the feedback loop backs each flow off well below line
	// rate long before the buffer bound).
	drops := netem.DropTotals(env.Net.SwitchPorts())
	if drops[netem.DropTailFull] != 0 {
		t.Fatalf("%d data tail-drops; credit pacing failed", drops[netem.DropTailFull])
	}
	// Aggregate completion time ≈ serializing 6 MB through one 10G link;
	// if per-flow rates failed to back off the queue (and FCTs) explode, if
	// they collapsed the transfer would take many times longer.
	var maxFCT sim.Duration
	for _, r := range env.FCT.Records() {
		if r.FCT() > maxFCT {
			maxFCT = r.FCT()
		}
	}
	ideal := sim.Duration(float64(6*1_000_000*8) / float64(10*sim.Gbps) * float64(sim.Second))
	if maxFCT > 3*ideal {
		t.Fatalf("makespan %v vs ideal %v — rates did not converge to a fair share", maxFCT, ideal)
	}
}

// TestCreditJitterBounds pins the ±10% pacing jitter: inter-credit gaps at
// an uncontended receiver stay within 0.9x..1.1x of the nominal gap.
func TestCreditJitterBounds(t *testing.T) {
	opts := DefaultOptions()
	env, p := build(t, 2, opts)
	var creditTimes []sim.Time
	inner := env.Net.Hosts[0].EP
	env.Net.Hosts[0].EP = epSpy{inner: inner, onPkt: func(pkt *netem.Packet) {
		if pkt.Type == netem.Credit {
			creditTimes = append(creditTimes, env.Eng.Now())
		}
	}}
	runTrace(env, p, oneFlow(0, 1, 400_000))
	if len(creditTimes) < 20 {
		t.Fatalf("observed only %d credits", len(creditTimes))
	}
	// Steady state: skip the multiplicative ramp (the rate roughly doubles
	// per RTT early on), then check consecutive gaps stay within jitter
	// plus one rate-update step of each other.
	start := len(creditTimes) / 2
	for i := start; i < len(creditTimes)-1; i++ {
		gap := creditTimes[i] - creditTimes[i-1]
		next := creditTimes[i+1] - creditTimes[i]
		if gap <= 0 {
			t.Fatalf("non-positive credit gap at %d", i)
		}
		ratio := float64(next) / float64(gap)
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("credit gap ratio %.2f at %d — pacing erratic", ratio, i)
		}
	}
}

type epSpy struct {
	inner netem.Endpoint
	onPkt func(*netem.Packet)
}

func (s epSpy) Receive(p *netem.Packet) {
	s.onPkt(p)
	if s.inner != nil {
		s.inner.Receive(p)
	}
}

// TestWireECMPPath checks that ExpressPass+Aeolus never sprays: every packet,
// data, probe and control alike, rides its flow's ECMP hash.
func TestWireECMPPath(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 8, opts)
	pkts := map[netem.PacketType]int{}
	var nics []*netem.Port
	for _, h := range env.Net.Hosts {
		nics = append(nics, h.NIC)
	}
	netem.InstrumentPorts(nics, netem.TraceFunc(func(_ sim.Time, _ netem.TraceEvent, _ string, pkt *netem.Packet) {
		pkts[pkt.Type]++
		if want := transport.FlowHash(pkt.Flow); pkt.PathID != want {
			t.Errorf("flow %d: %v packet on path %d, want the flow hash %d", pkt.Flow, pkt.Type, pkt.PathID, want)
		}
	}))
	trace := (&workload.IncastConfig{
		Fanin: 7, Receiver: 0, Hosts: 8, MsgSize: 30_000, Seed: 1,
		StartAt: sim.Time(sim.Microsecond),
	}).Generate()
	if done := runTrace(env, p, trace); done != len(trace) {
		t.Fatalf("completed %d of %d", done, len(trace))
	}
	for _, typ := range []netem.PacketType{netem.CreditReq, netem.Data, netem.Probe, netem.Credit, netem.Ack} {
		if pkts[typ] == 0 {
			t.Fatalf("no %v packets: %v", typ, pkts)
		}
	}
}
