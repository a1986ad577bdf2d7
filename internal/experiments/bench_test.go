package experiments

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
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
