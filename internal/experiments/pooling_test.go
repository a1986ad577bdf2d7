package experiments

import (
	"reflect"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// TestPoolOnOffIdenticalResults is the pooling correctness proof: every
// scheme in the catalogue, run once with packet recycling and once with the
// pool disabled, must produce byte-identical RunResults — every summary,
// drop counter, CDF point and raw flow record. Pooling changes which object
// carries a packet, never what happens to it. The sweep runs under the
// production scheduler, the timing wheel; the heap oracle's pool on/off cells
// are checked by TestGoldenDigests.
func TestPoolOnOffIdenticalResults(t *testing.T) {
	t.Run(string(sim.SchedWheel), poolOnOffSweep)
}

func poolOnOffSweep(t *testing.T) {
	cfg := testConfig()
	cfg.Audit = true
	cfg.sched = sim.SchedWheel
	off := poolOff(cfg)
	for _, spec := range auditSweepSpecs() {
		id := spec.Scheme.ID
		rOn := Run(cfg, spec)
		rOff := Run(off, spec)
		if rOn.Audit == nil || rOff.Audit == nil {
			t.Fatalf("%s: missing audit report", id)
		}
		if err := rOn.Audit.Err(); err != nil {
			t.Errorf("%s (pool on): %v", id, err)
		}
		if err := rOff.Audit.Err(); err != nil {
			t.Errorf("%s (pool off): %v", id, err)
		}
		if rOff.Audit.Pool.Allocated != rOff.Audit.Pool.Gets {
			t.Errorf("%s: disabled pool recycled packets: %+v", id, rOff.Audit.Pool)
		}
		if rOn.TxPackets > 0 && rOn.Audit.Pool.Allocated >= rOff.Audit.Pool.Allocated {
			t.Errorf("%s: pooling saved no allocations: %d with pool, %d without",
				id, rOn.Audit.Pool.Allocated, rOff.Audit.Pool.Allocated)
		}
		// The behavior digest is the strongest equality: slab-carved packets
		// (pool on) versus individually allocated ones (pool off) must be
		// observationally indistinguishable down to the last flow record.
		if dOn, dOff := rOn.Digest(), rOff.Digest(); dOn != dOff {
			t.Errorf("%s: digest diverges between slab and individual allocation:\non:  %s\noff: %s",
				id, dOn, dOff)
		}
		// Everything but the pool counters themselves must match exactly.
		rOn.Audit.Pool = netem.PoolStats{}
		rOff.Audit.Pool = netem.PoolStats{}
		if !reflect.DeepEqual(rOn, rOff) {
			t.Errorf("%s: results diverge between pool on and off:\non:  %+v\noff: %+v",
				id, rOn.All, rOff.All)
		}
	}
}
