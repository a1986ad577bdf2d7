package experiments

import (
	"runtime"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// BenchmarkSchemePackets is the macro benchmark: one small audited-sized
// incast simulation per scheme in the catalogue, reporting the end-to-end
// simulation throughput in packets per wall-clock second (every port
// transmission counts, control packets included).
func BenchmarkSchemePackets(b *testing.B) {
	for _, spec := range auditSweepSpecs() {
		b.Run(spec.Scheme.ID, func(b *testing.B) {
			cfg := testConfig()
			var tx uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Run(cfg, spec)
				if res.Completed != res.Total {
					b.Fatalf("%s: completed %d of %d", spec.Scheme.ID, res.Completed, res.Total)
				}
				tx += res.TxPackets
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(tx)/s, "packets/sec")
			}
		})
	}
}

// BenchmarkSchedulerComparison runs the per-scheme macro benchmark under each
// event scheduler, so BENCH_micro.json carries a heap-vs-wheel packets/sec
// block. The wheel must not make any scheme slower; a scheme regressing here
// under the wheel is a scheduler performance bug even if every test passes.
func BenchmarkSchedulerComparison(b *testing.B) {
	for _, sched := range []sim.SchedulerKind{sim.SchedHeap, sim.SchedWheel} {
		b.Run(string(sched), func(b *testing.B) {
			for _, spec := range auditSweepSpecs() {
				b.Run(spec.Scheme.ID, func(b *testing.B) {
					cfg := testConfig()
					cfg.sched = sched
					var tx uint64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res := Run(cfg, spec)
						if res.Completed != res.Total {
							b.Fatalf("%s/%s: completed %d of %d", sched, spec.Scheme.ID, res.Completed, res.Total)
						}
						tx += res.TxPackets
					}
					if s := b.Elapsed().Seconds(); s > 0 {
						b.ReportMetric(float64(tx)/s, "packets/sec")
					}
				})
			}
		})
	}
}

// smallRunAllocCeilings are the committed allocation budgets, in bytes, of
// one 7-to-1, 30 KB incast on leafspine per Aeolus family, about 15% above
// the recorded 281, 350 and 260 KiB. Every per-run container holds memory
// in proportion to what the run puts in it, so a fixed container size
// (flow-table and event-slab chunks, queue buffers) that a small run leaves
// mostly empty shows up here. Raising a ceiling is a memory regression and
// needs a PR saying why.
var smallRunAllocCeilings = map[string]uint64{
	"xpass+aeolus": 320 << 10,
	"homa+aeolus":  400 << 10,
	"ndp+aeolus":   300 << 10,
}

// TestSmallRunAllocCeiling gates what a small run allocates: the second of
// two identical Runs, so package-level lazy state is excluded, measured as
// runtime.MemStats.TotalAlloc across the call.
func TestSmallRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		spec := RunSpec{
			Scheme: SchemeSpec{ID: id, Seed: 1},
			Topo:   TopoLeafSpine,
			Incast: &workload.IncastConfig{Fanin: 7, Receiver: 0, MsgSize: 30_000, Seed: 1,
				StartAt: sim.Time(10 * sim.Microsecond)},
		}
		cfg := testConfig()
		Run(cfg, spec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(cfg, spec)
		runtime.ReadMemStats(&after)
		if res.Completed != res.Total {
			t.Fatalf("%s: completed %d of %d", id, res.Completed, res.Total)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.0f KiB", id, float64(got)/(1<<10))
		if ceil := smallRunAllocCeilings[id]; got > ceil {
			t.Errorf("%s: a 7-to-1 30 KB incast allocated %.0f KiB, ceiling %.0f KiB",
				id, float64(got)/(1<<10), float64(ceil)/(1<<10))
		}
	}
}
