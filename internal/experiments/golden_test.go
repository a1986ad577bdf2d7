package experiments

import (
	"flag"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// -sched restricts the golden-digest matrix to one scheduler, so CI can gate
// each implementation in a separate, clearly-labeled invocation:
//
//	go test ./internal/experiments -run TestGoldenDigests -sched=heap
//	go test ./internal/experiments -run TestGoldenDigests -sched=wheel
//
// Empty (the default) runs the full scheduler matrix.
var schedFlag = flag.String("sched", "", "restrict golden-digest runs to one scheduler (heap|wheel); empty = all")

// goldenSchedulers resolves the -sched flag to the scheduler set under test.
func goldenSchedulers(t *testing.T) []sim.SchedulerKind {
	if *schedFlag == "" {
		return []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap}
	}
	kind, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		t.Fatalf("-sched: %v", err)
	}
	return []sim.SchedulerKind{kind}
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

// TestGoldenDigests runs the golden trace for every pinned scheme — with the
// packet pool on and off, under every scheduler the -sched flag selects — and
// compares against the pre-refactor digests. The digests were pinned under
// the heap scheduler; the wheel must reproduce them byte for byte.
func TestGoldenDigests(t *testing.T) {
	checkGoldenPins(t, goldenSchedulers(t))
}

// checkGoldenPins runs one parallel subtest per pinned scheme: the golden
// trace at one shard, with the packet pool on and off under each of scheds,
// against the pinned digest.
func checkGoldenPins(t *testing.T, scheds []sim.SchedulerKind) {
	for id, want := range goldenDigests {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, sched := range scheds {
				for _, pool := range []bool{true, false} {
					got, err := GoldenDigestSharded(id, pool, sched, 1)
					if err != nil {
						t.Fatalf("GoldenDigestSharded(%s, pool=%v, %s, 1): %v", id, pool, sched, err)
					}
					if got != want {
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
// chaos: the same (scenario, seed, timeline) must digest byte-identical
// across heap vs wheel schedulers and pool on/off, and the impaired digest
// must differ from the pristine baseline (the chaos actually happened).
func TestImpairedGoldenDeterminism(t *testing.T) {
	tl := chaosTimeline(t)
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec := GoldenSpec(id)
			spec.Impair = tl
			digest := func(pool bool, sched sim.SchedulerKind) string {
				cfg := GoldenConfig()
				cfg.DisablePool = !pool
				cfg.Scheduler = sched
				r := Run(cfg, spec)
				if r.Completed != r.Total {
					t.Fatalf("impaired run incomplete: %d of %d (sched=%s pool=%v)",
						r.Completed, r.Total, sched, pool)
				}
				if r.Drops[netem.DropImpairment] == 0 {
					t.Fatalf("no impairment drops recorded; the timeline was inert")
				}
				return r.Digest()
			}
			ref := digest(true, sim.SchedWheel)
			for _, sched := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
				for _, pool := range []bool{true, false} {
					if got := digest(pool, sched); got != ref {
						t.Errorf("impaired digest diverged (sched=%s pool=%v):\n got  %s\n want %s",
							sched, pool, got, ref)
					}
				}
			}
			if pristine, err := GoldenDigest(id, true); err != nil {
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
