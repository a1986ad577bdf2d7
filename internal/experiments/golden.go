package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// The golden trace is the behavior-preservation anchor of the scheme
// catalogue: one small, fixed incast on the 24-host microbenchmark switch,
// run identically for every scheme. RunResult.Digest over that run pins the
// complete observable behavior of a scheme — every flow's timing, every
// drop counter, every meter — so refactors of the transport or scheme
// plumbing can prove byte-identical behavior mechanically instead of
// eyeballing summary statistics.

// GoldenScenario returns the golden trace for one scheme as a scenario
// value — the single source of truth GoldenConfig and GoldenSpec lower
// from: a 5-to-1 incast of 50 KB messages on the micro topology, seeded
// identically for every scheme. SchemeWorkload feeds Homa's priority
// cutoffs without generating Poisson traffic; xpass+prio gets the paper's
// 10 ms RTO it needs to terminate. The scenario's Digest() is the canonical
// identity recorded next to each behavior digest in aeolusbench -digest.
func GoldenScenario(id string) scenario.Scenario {
	sc := scenario.Scenario{
		Name:           "golden-" + id,
		Topo:           TopoMicro,
		Scheme:         id,
		Seed:           1,
		SchemeSeed:     3,
		SchemeWorkload: &scenario.WorkloadSpec{Name: "WebServer"},
		Incast: &scenario.IncastSpec{Fanin: 5, Receiver: 0, MsgSize: 50_000,
			Seed: 3, StartAt: 10 * sim.Microsecond},
		Deadline: sim.Duration(sim.Second),
	}
	if id == "xpass+prio" {
		sc.RTO = 10 * sim.Millisecond
	}
	return sc
}

// GoldenConfig returns the fixed configuration of the golden trace.
func GoldenConfig() Config {
	cfg, _ := mustFromScenario(GoldenScenario("xpass"))
	return cfg
}

// GoldenSpec returns the golden-trace run for one scheme, lowered from
// GoldenScenario.
func GoldenSpec(id string) RunSpec {
	_, spec := mustFromScenario(GoldenScenario(id))
	return spec
}

// GoldenDigest runs the golden trace for a scheme and returns the RunResult
// digest.
func GoldenDigest(id string) (string, error) {
	spec := GoldenSpec(id)
	if _, err := MakeScheme(spec.Scheme); err != nil {
		return "", err
	}
	r := Run(GoldenConfig(), spec)
	return r.Digest(), nil
}

// Digest returns a hex SHA-256 over every deterministic field of the result:
// the scheme name, per-flow records in completion order, the aggregate
// metrics, drop counters and transmission totals. Two runs digest equal iff
// they are behaviorally indistinguishable at the RunResult level.
func (r *RunResult) Digest() string {
	h := sha256.New()
	w := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	h.Write([]byte(r.Scheme))
	w(int64(r.Total))
	w(int64(r.Completed))
	w(int64(len(r.records)))
	for _, rec := range r.records {
		w(rec.ID)
		w(rec.Size)
		w(int64(rec.Start))
		w(int64(rec.Finish))
		w(int64(rec.IdealFCT))
		w(int64(rec.Timeouts))
	}
	w(r.FirstRTTFrac)
	w(r.Efficiency)
	w(r.Goodput)
	w(r.WindowGoodput)
	w(int64(r.TimeoutFlows))
	w(r.Drops)
	w(r.TxPackets)
	w(int64(r.baseRTT))
	w(int64(len(r.SmallCDF)))
	for _, pt := range r.SmallCDF {
		w(pt[0])
		w(pt[1])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
