package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// ablationScenarios declares the ablation, which isolates the contribution
// of each Aeolus design choice on one baseline (ExpressPass, Cache Follower,
// two-tier fabric, 40% core load):
//
//   - no pre-credit burst at all (vanilla ExpressPass);
//   - the selective dropping threshold, swept from 1 packet to effectively
//     "no selective protection" (threshold = whole buffer);
//   - probe/selective-ACK loss detection versus RTO-only recovery (what the
//     §5.5 priority-queueing alternative is forced into), at both a
//     conservative and an aggressive RTO.
//
// The table shows why the paper's combination — small threshold plus
// probe-based recovery — is the sweet spot: thresholds barely move the
// small-flow mean until they stop protecting scheduled packets, while
// RTO-only recovery either inflates the tail (10 ms) or burns goodput on
// duplicates (20 µs).
func ablationScenarios(cfg Config) []scenario.Scenario {
	wl := workload.CacheFollower.Name()
	scns := []scenario.Scenario{poissonScenario(cfg, "xpass", wl, TopoLeafSpine, 0.4)}

	thresholds := []int64{1538, 3 << 10, 6 << 10, 12 << 10, 24 << 10, 96 << 10, 200 << 10}
	if cfg.Quick {
		thresholds = []int64{1538, 6 << 10, 200 << 10}
	}
	for _, th := range thresholds {
		sc := poissonScenario(cfg, "xpass+aeolus", wl, TopoLeafSpine, 0.4)
		sc.Threshold = th
		scns = append(scns, sc)
	}

	for _, rto := range []sim.Duration{10 * sim.Millisecond, 20 * sim.Microsecond} {
		sc := poissonScenario(cfg, "xpass+prio", wl, TopoLeafSpine, 0.4)
		sc.RTO = rto
		scns = append(scns, sc)
	}
	return scns
}

// ablationVariant names the design choice an ablation run isolates.
func ablationVariant(sc scenario.Scenario) string {
	switch {
	case sc.Scheme == "xpass":
		return "no pre-credit burst (vanilla)"
	case sc.Scheme == "xpass+prio" && sc.RTO >= sim.Millisecond:
		return fmt.Sprintf("burst + RTO-only recovery (%dms)", sc.RTO/sim.Millisecond)
	case sc.Scheme == "xpass+prio":
		return fmt.Sprintf("burst + RTO-only recovery (%dus)", sc.RTO/sim.Microsecond)
	case sc.Threshold >= 200<<10:
		return "aeolus, threshold = buffer (no SPF)"
	}
	return fmt.Sprintf("aeolus, threshold %dKB", sc.Threshold>>10)
}

func ablationTables(_ Config, scns []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "ablation", Title: "Aeolus design-choice ablation (ExpressPass base, Cache Follower, 40% core)",
		Columns: []string{"variant", "p50/us", "p99/us", "mean/us", "in1RTT", "maxFCT/us", "efficiency"}}
	for i, r := range res {
		t.Add(ablationVariant(scns[i]),
			stats.FormatDur(r.Small.P50), stats.FormatDur(r.Small.P99),
			stats.FormatDur(r.Small.Mean), f3(r.FirstRTTFrac),
			stats.FormatDur(r.All.Max), f3(r.Efficiency))
	}
	return []Table{t}
}
