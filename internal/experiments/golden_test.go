package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// poolOff returns cfg with packet recycling off in every shard: the Observe
// hook runs before the first packet, so every Get allocates and every Put
// discards for the whole run. Pooling changes which object carries a
// packet, never what happens to it, so results must not move.
func poolOff(cfg Config) Config {
	observe := cfg.Observe
	cfg.Observe = func(net *netem.Network, env *transport.Env, proto transport.Protocol) {
		net.Pool.Disable()
		if observe != nil {
			observe(net, env, proto)
		}
	}
	return cfg
}

// goldenDigests pins the complete observable behavior of every scheme on the
// golden trace (see golden.go). The values were captured before the rdbase /
// scheme-catalogue refactor and prove, mechanically, that the refactor —
// and any future one — preserves behavior bit for bit.
//
// If a change is *supposed* to alter behavior (a bug fix, a model change),
// regenerate with `aeolusbench -digest` and update the table in the same
// commit, explaining the change.
//
// Regenerated with the impairment layer: the digest's drop vector grew a
// fifth reason (DropImpairment, always zero on the pristine golden trace),
// which shifts every hash even though no packet-level behavior changed.
var goldenDigests = map[string]string{
	"xpass":        "8fbf3366030d23a91ef80fc665ae6abe2a2c9b4fc4b25842540b965d3f651fa3",
	"xpass+aeolus": "be7545217c2a82faaff9666e2054b47262073a82b13d2c740fe4caf05ca4e578",
	"xpass+oracle": "33108e6655512da8d0c3c06eed369e447494f7939b64ecaa6612a31bc59e9eaf",
	"xpass+prio":   "ff18fe24db191f938317b4c669648960230283b8c646772f38e9a019a3ec7cd9",
	"homa":         "a0b3612b891918631882c3ff4177772775610816a5d52b33f641ea7861905c14",
	"homa+aeolus":  "47c3898a300b26c25876faaa20f76e21a2364b2650477d0d9015a5d8b5c95947",
	"homa+oracle":  "56d865f3550c862feec62bfed8b207ba33de7e17cddce5ac6cff13af290cf197",
	"homa-eager":   "3568f68bc0b8f5d2ffeb6309d44b5ec3bf69ff03836aa93ed1ee3b1e7e4c4382",
	"ndp":          "f0b9beccf99a87a6fd2f3f2384d032f9c1b182e0ed137d979317d60729669738",
	"ndp+aeolus":   "0740894edfe49822c0b7e80770a6af5adc314bed5fff540c166b997cae81a2c3",
}

// TestGoldenDigests is the golden cross-check: for every pinned scheme, the
// golden trace must reproduce the pinned digest in every cell of {timing
// wheel, reference heap} × {pool on, pool off}. The heap and pool-off mode
// exist only as these oracles: both schedulers fire events in the same
// (time, seq) order and pooling never changes event order, so a drift in one
// cell is a scheduler or pool bug, not a behavior change.
func TestGoldenDigests(t *testing.T) {
	for id, want := range goldenDigests {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec := GoldenSpec(id)
			for _, sched := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
				for _, pool := range []bool{true, false} {
					cfg := GoldenConfig()
					cfg.sched = sched
					if !pool {
						cfg = poolOff(cfg)
					}
					r := Run(cfg, spec)
					if got := r.Digest(); got != want {
						t.Errorf("golden digest drifted (sched=%s pool=%v):\n got  %s\n want %s", sched, pool, got, want)
					}
				}
			}
		})
	}
}

// chaosTimeline is the canonical impairment scenario scaled to the golden
// trace: 1% random loss on every switch port throughout, plus a failure of
// the receiver downlink at t=50µs restored at t=150µs. Parsed from text so
// the digest test exercises the same path as -impair-file.
func chaosTimeline(t *testing.T) *netem.Timeline {
	t.Helper()
	tl, err := netem.ParseTimeline("chaos", []byte(
		"0s sw0->* loss rate=0.01\n"+
			"50us sw0->h0 fail\n"+
			"150us sw0->h0 restore\n"))
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestImpairedGoldenDeterminism pins the determinism contract under injected
// chaos: the same (scenario, seed, timeline) must digest byte-identical with
// the pool on and off, and the impaired digest must differ from the pristine
// baseline (the chaos actually happened).
func TestImpairedGoldenDeterminism(t *testing.T) {
	tl := chaosTimeline(t)
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec := GoldenSpec(id)
			spec.Impair = tl
			digest := func(cfg Config) string {
				r := Run(cfg, spec)
				if r.Completed != r.Total {
					t.Fatalf("impaired run incomplete: %d of %d", r.Completed, r.Total)
				}
				if r.Drops[netem.DropImpairment] == 0 {
					t.Fatalf("no impairment drops recorded; the timeline was inert")
				}
				return r.Digest()
			}
			ref := digest(GoldenConfig())
			if got := digest(GoldenConfig()); got != ref {
				t.Errorf("impaired digest diverged on a rerun:\n got  %s\n want %s", got, ref)
			}
			if got := digest(poolOff(GoldenConfig())); got != ref {
				t.Errorf("impaired digest diverged with the pool off:\n got  %s\n want %s", got, ref)
			}
			if pristine, err := GoldenDigest(id); err != nil {
				t.Fatal(err)
			} else if pristine == ref {
				t.Errorf("impaired digest equals pristine digest; impairments had no observable effect")
			}
		})
	}
}

// TestGoldenCoversCatalogue keeps the pinned table in lockstep with the
// registry: every registered scheme must have a golden digest, so new
// schemes are pinned the day they are added.
func TestGoldenCoversCatalogue(t *testing.T) {
	for _, e := range Schemes() {
		if _, ok := goldenDigests[e.ID]; !ok {
			t.Errorf("scheme %s registered but not pinned in goldenDigests; run aeolusbench -digest -scheme %s", e.ID, e.ID)
		}
	}
	if n := len(Schemes()); n != len(goldenDigests) {
		t.Errorf("catalogue has %d schemes, goldenDigests pins %d", n, len(goldenDigests))
	}
}

// queueTableDigests pins the SHA-256 of the rendered seed-1 Quick tables of
// the experiments whose numbers come straight from the port disciplines: the
// testbed incasts over selective dropping (fig8 for ExpressPass, fig11 for
// Homa's priority queues), the bottleneck queue-length and first-RTT
// utilization sweeps (fig15, fig16), and the shared-buffer priority-queue
// comparison (table5). fig15 and fig16 are built by plan like every run, but
// their multi-round traffic has no scenario form, so no scenario digest
// covers them: these pins do.
var queueTableDigests = map[string]string{
	"fig8":   "84166e4befa0ee7e662f92bd694a94a02d62c9122973dec278653ff9e9a07647",
	"fig11":  "57deab6690ce53153c749b8600675464d4de372193f85dd2cccccf8b7974eeda",
	"fig15":  "97989b6af60da968bb0b970b2c13fede5ccac4b1bebbb20c5e31e675aaac15fd",
	"fig16":  "aceffdc3892101996393414a387354b2bda7da41fe9022aa4da2548faecf2fc6",
	"table5": "19c210b9ae22d0f1224e9cac5b78826d917ba2c435693845b77cbe593dd2b11d",
}

// TestQueueTableDigests regenerates each pinned experiment at seed 1 in Quick
// mode and compares the digest of its rendered tables.
func TestQueueTableDigests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quick, cfg.Budget = true, 8<<20
	for id, want := range queueTableDigests {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, tb := range e.Fn(cfg) {
			tb.Fprint(h)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s tables digest %s, want %s", id, got, want)
		}
	}
}
