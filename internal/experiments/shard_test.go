package experiments

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// shardDiffSpec is the cross-pod differential scenario: Homa with spraying
// off is the one catalogued configuration that draws no random number
// anywhere — ExpressPass jitters credit gaps at receivers, NDP and default
// Homa spray paths at senders, and each of those streams would be consumed
// in per-shard order rather than global order. With no RNG, a sharded run
// must reproduce the sequential run exactly: identical flow records,
// identical meters, identical drop counters — the full digest.
func shardDiffSpec() RunSpec {
	return RunSpec{
		Scheme: SchemeSpec{ID: "homa+aeolus", Seed: 3,
			Workload: workload.WebServer,
			Opts:     map[string]string{"spray": "false"}},
		Topo:     TopoLeafSpine,
		Workload: workload.WebServer,
		CoreLoad: 0.5,
		Flows:    300,
	}
}

func shardDiffConfig() Config {
	cfg := DefaultConfig()
	cfg.Audit = true
	return cfg
}

// TestShardedDifferential pins the tentpole contract on a fabric that
// actually splits: the same run on the 8-pod leaf-spine must digest
// byte-identical, with a clean audit, in every cell of the runtime-knob
// matrix — shards {1,2,4} × pool on/off.
func TestShardedDifferential(t *testing.T) {
	spec := shardDiffSpec()
	cfg := shardDiffConfig()
	base := Run(cfg, spec)
	if base.Completed != base.Total {
		t.Fatalf("sequential baseline completed %d of %d", base.Completed, base.Total)
	}
	if base.Audit == nil || !base.Audit.Ok() {
		t.Fatalf("sequential baseline audit: %v", base.Audit.Err())
	}
	want := base.Digest()
	for _, n := range []int{1, 2, 4} {
		for _, pool := range []bool{true, false} {
			run := cfg
			run.Shards = n
			if !pool {
				run = poolOff(run)
			}
			res := Run(run, spec)
			if res.Shards != n {
				t.Fatalf("Shards=%d ran with %d shards", n, res.Shards)
			}
			if res.Audit == nil || !res.Audit.Ok() {
				t.Fatalf("shards=%d pool=%v audit: %v", n, pool, res.Audit.Err())
			}
			if got := res.Digest(); got != want {
				t.Errorf("shards=%d pool=%v digest diverged from sequential:\n got  %s\n want %s\n(records: seq %d/%d, sharded %d/%d)",
					n, pool, got, want, base.Completed, base.Total, res.Completed, res.Total)
			}
		}
	}
}

// TestShardedDeterminism covers the schemes the differential test cannot:
// with RNG in play a sharded run may legitimately differ from the sequential
// one (per-shard streams), but it must still be a pure function of the spec —
// two identical invocations must digest identically, or the handoff merge
// leaks goroutine scheduling into results.
func TestShardedDeterminism(t *testing.T) {
	for _, id := range []string{"xpass+aeolus", "ndp+aeolus"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec := shardDiffSpec()
			spec.Scheme = SchemeSpec{ID: id, Seed: 3, Workload: workload.WebServer}
			cfg := shardDiffConfig()
			cfg.Shards = 4
			a := Run(cfg, spec)
			b := Run(cfg, spec)
			if a.Digest() != b.Digest() {
				t.Errorf("two identical shards=4 runs digest differently:\n  %s\n  %s", a.Digest(), b.Digest())
			}
			if a.Audit == nil || !a.Audit.Ok() {
				t.Errorf("audit: %v", a.Audit.Err())
			}
		})
	}
}

// TestShardedAuditSweep balances the books for one representative of each
// transport family on a sharded fabric, incast included — NDP exercises
// cross-shard trimming and the sender-side RTO self-disarm, ExpressPass the
// credit loop, Homa the grant loop.
func TestShardedAuditSweep(t *testing.T) {
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{
				Scheme:   SchemeSpec{ID: id, Seed: 5, Workload: workload.WebServer},
				Topo:     TopoLeafSpine,
				Workload: workload.WebServer,
				CoreLoad: 0.6,
				Flows:    200,
				Incast:   &workload.IncastConfig{Fanin: 12, Receiver: 0, MsgSize: 100_000, Seed: 9},
			}
			cfg := shardDiffConfig()
			cfg.Shards = 4
			res := Run(cfg, spec)
			if res.Shards != 4 {
				t.Fatalf("ran with %d shards, want 4", res.Shards)
			}
			if res.Completed != res.Total {
				t.Fatalf("completed %d of %d", res.Completed, res.Total)
			}
			if res.Audit == nil || !res.Audit.Ok() {
				t.Fatalf("audit: %v", res.Audit.Err())
			}
			if res.Audit.ForwardedPayload == 0 {
				t.Error("no payload crossed a shard boundary — partition is not exercising handoffs")
			}
			if res.Audit.ForwardedPayload != res.Audit.ArrivedPayload {
				t.Errorf("boundary ledger imbalanced: forwarded %d, arrived %d",
					res.Audit.ForwardedPayload, res.Audit.ArrivedPayload)
			}
		})
	}
}

// TestShardGoldenMatrix pins the golden digests under shard requests {2,4} ×
// pool on/off, race-enabled in make shard-golden. The golden topology is a
// single switch that never splits, so every request must fall back to one
// shard and reproduce the pin; the shard axis itself runs on the leaf-spine
// in TestShardedDifferential.
func TestShardGoldenMatrix(t *testing.T) {
	for id, want := range goldenDigests {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec := GoldenSpec(id)
			for _, shards := range []int{2, 4} {
				for _, pool := range []bool{true, false} {
					cfg := GoldenConfig()
					cfg.Shards = shards
					if !pool {
						cfg = poolOff(cfg)
					}
					r := Run(cfg, spec)
					if r.Shards != 1 {
						t.Fatalf("Shards=%d on the single switch ran with %d shards, want 1", shards, r.Shards)
					}
					if got := r.Digest(); got != want {
						t.Errorf("golden digest drifted (shards=%d pool=%v):\n got  %s\n want %s", shards, pool, got, want)
					}
				}
			}
		})
	}
}

// TestShardedEventsAccounting pins the execution metadata on RunResult. One
// shard drives its engine directly and stops at the event that completes the
// last flow, so the one-shard event counts are pinned: routing one shard
// through ShardGroup windows, which stop only at a barrier, or overshooting
// the last completion moves them. The unaudited xpass+aeolus run still has
// credit traffic pending at its last completion, which is what makes an
// overshoot visible there. A sharded run's Events and Sched are the sums
// over its engines.
func TestShardedEventsAccounting(t *testing.T) {
	xpass := shardDiffSpec()
	xpass.Scheme = SchemeSpec{ID: "xpass+aeolus", Seed: 3, Workload: workload.WebServer}
	for _, c := range []struct {
		spec    RunSpec
		audit   bool
		events  uint64
		pending int
	}{
		{shardDiffSpec(), true, 162380, 0},
		{xpass, false, 196060, 18},
	} {
		cfg := shardDiffConfig()
		cfg.Audit = c.audit
		r := Run(cfg, c.spec)
		if r.Shards != 1 || r.Events != c.events || r.Sched.Pending != c.pending {
			t.Errorf("%s one-shard run: Shards=%d Events=%d Pending=%d, want 1, %d, %d",
				c.spec.Scheme.ID, r.Shards, r.Events, r.Sched.Pending, c.events, c.pending)
		}
	}

	cfg := shardDiffConfig()
	cfg.Audit = false
	cfg.Shards = 4
	var engines []*sim.Engine
	cfg.Observe = func(_ *netem.Network, env *transport.Env, _ transport.Protocol) {
		engines = append(engines, env.Eng)
	}
	r := Run(cfg, xpass)
	var events uint64
	var sum sim.SchedStats
	for _, e := range engines {
		events += e.Fired()
		ss := e.SchedStats()
		sum.Pending += ss.Pending
		sum.PeakPending += ss.PeakPending
	}
	if len(engines) != 4 || r.Events != events || r.Sched != sum {
		t.Errorf("sharded run over %d engines reported Events=%d Sched=%+v, engines sum to %d, %+v",
			len(engines), r.Events, r.Sched, events, sum)
	}
	if sum.Pending == 0 {
		t.Error("nothing pending on any shard at stop: the Pending sum is untested")
	}
}
