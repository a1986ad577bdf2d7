package experiments

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// TestSchemeConformance runs every registered scheme through the shared
// invariant table on the golden trace, under both event schedulers, so a
// newly registered transport or variant gets baseline coverage for free:
//
//   - every flow completes before the deadline
//   - the packet-conservation audit is clean
//   - no flow beats its ideal completion time
//   - transfer efficiency never exceeds 1
//   - the protocol's Footprint holds one flow descriptor, sender and
//     receiver state per flow
func TestSchemeConformance(t *testing.T) {
	for _, sched := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
		for _, e := range Schemes() {
			sched, e := sched, e
			t.Run(string(sched)+"/"+e.ID, func(t *testing.T) {
				t.Parallel()
				cfg := GoldenConfig()
				cfg.Audit = true
				cfg.sched = sched
				var proto transport.Protocol
				cfg.Observe = func(_ *netem.Network, _ *transport.Env, p transport.Protocol) { proto = p }
				r := Run(cfg, GoldenSpec(e.ID))
				if r.Completed != r.Total {
					t.Errorf("completed %d of %d flows", r.Completed, r.Total)
				}
				if r.Audit == nil {
					t.Error("no audit report attached")
				} else if err := r.Audit.Err(); err != nil {
					t.Errorf("audit: %v", err)
				}
				for _, rec := range r.Records() {
					if fct := rec.Finish.Sub(rec.Start); fct < rec.IdealFCT {
						t.Errorf("flow %d: FCT %v beats ideal %v", rec.ID, fct, rec.IdealFCT)
					}
				}
				if r.Efficiency > 1 {
					t.Errorf("transfer efficiency %.4f > 1", r.Efficiency)
				}
				if r.Scheme == "" {
					t.Error("empty display name")
				}
				want := transport.Footprint{Flows: r.Total, Senders: r.Total, Receivers: r.Total}
				if fp := proto.Footprint(); fp != want {
					t.Errorf("footprint %+v, want %+v: one descriptor, sender and receiver state per flow", fp, want)
				}
			})
		}
	}
}
