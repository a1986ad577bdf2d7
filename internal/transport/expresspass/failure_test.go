package expresspass

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// injectLoss installs a loss impairment with targeted random loss on every
// switch port.
func injectLoss(net *netem.Network, rate float64, seed uint64, match func(*netem.Packet) bool) []*netem.LinkImpairment {
	var out []*netem.LinkImpairment
	for _, pt := range net.SwitchPorts() {
		li := netem.InstallImpairment(pt, seed)
		li.SetLoss(rate, 0, match)
		out = append(out, li)
		seed++
	}
	return out
}

// TestProbeLossRecoveredBySafetyTimer injects certain loss of the first
// probe; the §6 safety timer must re-probe and the flow must still finish.
func TestProbeLossRecoveredBySafetyTimer(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	opts.Aeolus.ProbeTimeout = 100 * sim.Microsecond
	opts.Aeolus.MaxProbeResends = 5
	env, p := build(t, 2, opts)

	dropped := 0
	injectLoss(env.Net, 1.0, 3, func(pkt *netem.Packet) bool {
		// Only the very first probe.
		if pkt.Type == netem.Probe && dropped == 0 {
			dropped++
			return true
		}
		return false
	})
	done := runTrace(env, p, oneFlow(0, 1, 50_000))
	if done != 1 {
		t.Fatal("flow did not recover from probe loss")
	}
	if dropped != 1 {
		t.Fatalf("injected %d probe losses, want 1", dropped)
	}
}

// TestAckLossTriggersSpuriousButBoundedRetx injects loss of some per-packet
// ACKs: the sender must retransmit those segments (it cannot tell loss from
// ACK loss), the receiver must deduplicate, and the flow completes with the
// duplicate volume bounded by the ACK loss.
func TestAckLossTriggersSpuriousButBoundedRetx(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 2, opts)
	injectLoss(env.Net, 0.5, 9, func(pkt *netem.Packet) bool {
		return pkt.Type == netem.Ack && pkt.Meta == 0 // data ACKs only, not probe ACKs
	})
	const size = 60_000
	done := runTrace(env, p, oneFlow(0, 1, size))
	if done != 1 {
		t.Fatal("flow did not complete under ACK loss")
	}
	if env.Meter.DeliveredPayload != size {
		t.Fatalf("delivered %d", env.Meter.DeliveredPayload)
	}
	// Duplicates are bounded by the burst size.
	if env.Meter.SentPayload > 2*size {
		t.Fatalf("sent %d bytes for a %d byte flow; unbounded duplication", env.Meter.SentPayload, size)
	}
}

// TestScheduledLossRecoveredByRTO injects rare loss of scheduled packets
// (which selective dropping alone would never discard) and relies on the
// receiver-driven RTO resend path.
func TestScheduledLossRecoveredByRTO(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	opts.RTO = 500 * sim.Microsecond
	env, p := build(t, 2, opts)
	injectLoss(env.Net, 0.05, 17, func(pkt *netem.Packet) bool {
		return pkt.Type == netem.Data && pkt.Scheduled
	})
	const size = 500_000
	done := runTrace(env, p, oneFlow(0, 1, size))
	if done != 1 {
		t.Fatal("flow did not complete under scheduled loss")
	}
	if env.FCT.Records()[0].Timeouts == 0 {
		t.Fatal("expected at least one RTO with 5% scheduled loss")
	}
	if env.Meter.DeliveredPayload != size {
		t.Fatalf("delivered %d of %d", env.Meter.DeliveredPayload, size)
	}
}

// TestHeavyIncastProbesSurvive reproduces the §6 resilience argument: with
// minimum-size probes and a small dropping threshold, even a very wide
// incast delivers every probe (they are scheduled/protected) and every
// message completes without deadlock.
func TestHeavyIncastProbesSurvive(t *testing.T) {
	opts := DefaultOptions()
	opts.Aeolus = core.DefaultOptions()
	env, p := build(t, 8, opts)
	probeDrops := 0
	netem.InstrumentPorts(env.Net.SwitchPorts(), netem.TraceFunc(func(_ sim.Time, ev netem.TraceEvent, _ string, pkt *netem.Packet) {
		if ev == netem.TraceDrop && pkt.Type == netem.Probe {
			probeDrops++
		}
	}))
	// 70 concurrent messages into one receiver (senders cycle over hosts).
	trace := (&workload.IncastConfig{
		Fanin: 70, Receiver: 0, Hosts: 8, MsgSize: 20_000, Seed: 21,
		StartAt: sim.Time(10 * sim.Microsecond),
	}).Generate()
	done := transport.Runner(env, p, trace, sim.Time(2*sim.Second))
	if done != 70 {
		t.Fatalf("completed %d of 70", done)
	}
	if probeDrops != 0 {
		t.Fatalf("%d probes dropped; they must be protected", probeDrops)
	}
}
