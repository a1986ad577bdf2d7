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
// one 7-to-1, 30 KB incast on leafspine per Aeolus family, about 17% above
// the recorded 209, 295 and 197 KiB. Every per-run container holds memory
// in proportion to what the run puts in it, so a fixed container size
// (flow-table and event-slab chunks, packet-slab runs, queue buffers) that a
// small run leaves mostly empty shows up here. Raising a ceiling is a memory
// regression and needs a PR saying why.
var smallRunAllocCeilings = map[string]uint64{
	"xpass+aeolus": 245 << 10,
	"homa+aeolus":  345 << 10,
	"ndp+aeolus":   230 << 10,
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

// farShareCeiling is the committed share of a run's fired events that may
// have been scheduled past the scheduler's near window (sim.SchedStats
// FarPlaced), where they wait in the far tier and are moved a second time
// when the window reaches them. The scale cell below places 1.4% there.
const farShareCeiling = 0.03

// TestFarTierShare gates the two-tier scheduler's split on a fabric run:
// the scale cell at width 8 and core load 0.8 with 5 flows per host (the
// benchmark's smoke-test size of its scale workloads). Counts do not depend
// on timing, so the gate is exact: a delay that starts landing past the
// window — a slower link, a longer timer — moves it at once.
func TestFarTierShare(t *testing.T) {
	sc := ScaleScenario(Config{Seed: 1}, 8, 0.8)
	sc.Flows = ScaleFabric(8).Hosts() * 5
	sem, spec := mustFromScenario(sc)
	res := Run(Config{}.ForScenario(sem), spec)
	if res.Completed != res.Total {
		t.Fatalf("completed %d of %d", res.Completed, res.Total)
	}
	share := float64(res.Sched.FarPlaced) / float64(res.Events)
	t.Logf("%d of %d events placed in the far tier (%.2f%%)", res.Sched.FarPlaced, res.Events, 100*share)
	if share > farShareCeiling {
		t.Errorf("%.2f%% of the events fired were placed in the far tier, ceiling %.0f%%",
			100*share, 100*farShareCeiling)
	}
}

// perFlowMallocCeilings are the committed allocation-count budgets of each
// Aeolus family per flow a leafspine incast of 30 KB messages adds. A flow's
// sender is one packed table slot and its receiver another, and its timers
// bind views, not closures; what remains per flow is its descriptor, its
// segment bitmaps and its share of the growing tables, packet-slab runs and
// queue rings. The recorded counts are 18.4, 23.6 and 16.9; one more object
// per flow pushes a family past its ceiling.
var perFlowMallocCeilings = map[string]float64{
	"xpass+aeolus": 19.0,
	"homa+aeolus":  24.2,
	"ndp+aeolus":   17.5,
}

// TestPerFlowMallocCeiling gates how many objects each added flow costs: the
// runtime.MemStats.Mallocs of the second of two identical Runs (so
// package-level lazy state is excluded), on a freshly collected heap, of a
// 16-to-1 incast, less that of an 8-to-1 incast, divided by the 8 added
// flows.
func TestPerFlowMallocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(id string, fanin int) uint64 {
		spec := RunSpec{
			Scheme: SchemeSpec{ID: id, Seed: 1},
			Topo:   TopoLeafSpine,
			Incast: &workload.IncastConfig{Fanin: fanin, Receiver: 0, MsgSize: 30_000, Seed: 1,
				StartAt: sim.Time(10 * sim.Microsecond)},
		}
		cfg := testConfig()
		Run(cfg, spec)
		// Settle the heap first: a collection that starts inside the
		// measured run brings allocations of its own (the standard
		// library's pools refill), and where one lands depends on what
		// ran before, not on the flows.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(cfg, spec)
		runtime.ReadMemStats(&after)
		if res.Completed != res.Total {
			t.Fatalf("%s: %d-to-1 incast completed %d of %d", id, fanin, res.Completed, res.Total)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		perFlow := float64(mallocs(id, 16)-mallocs(id, 8)) / 8
		t.Logf("%s: %.1f mallocs per added flow", id, perFlow)
		if ceil := perFlowMallocCeilings[id]; perFlow > ceil {
			t.Errorf("%s: each added flow costs %.1f mallocs, ceiling %.1f", id, perFlow, ceil)
		}
	}
}
