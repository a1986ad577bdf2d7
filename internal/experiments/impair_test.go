package experiments

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
)

// lossSweep runs the golden trace for the given schemes under uniform random
// loss, audited, and requires the recovery invariants: every flow completes,
// the conservation books balance to zero violations, and injected drops are
// attributed under DropImpairment.
func lossSweep(t *testing.T, schemes []string, rates []float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Audit = true
	cfg.Parallel = 4
	type key struct {
		id   string
		rate float64
	}
	var keys []key
	var specs []RunSpec
	for _, id := range schemes {
		for _, rate := range rates {
			spec := GoldenSpec(id)
			spec.Impair = LossTimeline(rate)
			keys = append(keys, key{id, rate})
			specs = append(specs, spec)
		}
	}
	pool := NewPool(cfg)
	for _, spec := range specs {
		pool.Submit(spec)
	}
	for j, r := range pool.Collect() {
		k := keys[j]
		if r.Completed != r.Total {
			t.Errorf("%s at %g loss: completed %d of %d — recovery failed",
				k.id, k.rate, r.Completed, r.Total)
			continue
		}
		if r.Audit == nil {
			t.Errorf("%s at %g loss: no audit report", k.id, k.rate)
			continue
		}
		if err := r.Audit.Err(); err != nil {
			t.Errorf("%s at %g loss: %v", k.id, k.rate, err)
		}
		if r.Audit.DropsByReason[netem.DropImpairment] == 0 {
			t.Errorf("%s at %g loss: no drops attributed to DropImpairment", k.id, k.rate)
		}
	}
}

// TestLossSweepRecovery is the loss-sweep version of the registry-derived
// audit sweep: under 1–10% uniform random loss, every registered scheme must
// still terminate with all flows complete and zero audit violations — the
// retransmission/safety-timer paths must close every hole the impairment
// layer punches.
func TestLossSweepRecovery(t *testing.T) {
	var ids []string
	for _, e := range Schemes() {
		ids = append(ids, e.ID)
	}
	lossSweep(t, ids, []float64{0.01, 0.1})
}

// TestLossSweepSmoke is the short `make ci` smoke: one representative scheme
// per transport family at 5% loss.
func TestLossSweepSmoke(t *testing.T) {
	lossSweep(t, []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"}, []float64{0.05})
}

// TestImpairmentDropsExactlyOnce pins the audit attribution contract of the
// impairment layer: hook-observed drops and qdisc counters agree (the
// auditor's drop-coherence check), the pool stays coherent, and the counters
// the result reports match what the controllers injected.
func TestImpairmentDropsExactlyOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Audit = true
	spec := GoldenSpec("xpass+aeolus")
	spec.Impair = LossTimeline(0.05)
	r := Run(cfg, spec)
	if r.Completed != r.Total {
		t.Fatalf("completed %d of %d", r.Completed, r.Total)
	}
	if r.Audit == nil {
		t.Fatal("no audit report")
	}
	if err := r.Audit.Err(); err != nil {
		t.Fatalf("audit violations under impairment: %v", err)
	}
	if got, want := r.Audit.DropsByReason[netem.DropImpairment], r.Drops[netem.DropImpairment]; got != want {
		t.Fatalf("auditor saw %d impairment drops, counters say %d", got, want)
	}
	if r.Drops[netem.DropImpairment] == 0 {
		t.Fatal("no impairment drops at 5% loss")
	}
}

// TestCheckImpairShards pins where CheckRun applies the impairment × shards
// rule: after the pod clamp, so a timeline is rejected only on a run whose
// fabric really splits into several shards.
func TestCheckImpairShards(t *testing.T) {
	loss := func(target string) *netem.Timeline {
		return &netem.Timeline{Steps: []netem.TimelineStep{{Target: target, Action: netem.ActLoss, Rate: 0.01}}}
	}
	cfg := testConfig()
	spec := GoldenSpec("xpass+aeolus")
	spec.Topo, spec.Impair = TopoLeafSpine, loss("leaf0->*")
	if err := CheckRun(cfg, spec); err != nil {
		t.Fatalf("impaired leafspine at one shard: %v", err)
	}
	cfg.Shards = 2
	if err := CheckRun(cfg, spec); err == nil {
		t.Error("impaired leafspine at Shards 2: CheckRun returned nil")
	}
	spec.Topo, spec.Impair = TopoSingleSwitch, loss("sw0->*")
	if err := CheckRun(cfg, spec); err != nil {
		t.Errorf("impaired single at Shards 2 runs as one shard, got %v", err)
	}
}
