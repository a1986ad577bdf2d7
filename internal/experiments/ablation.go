package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// ablationCases declares the ablation grid as (display name, scenario) pairs.
// The names are shaping information — which knob each row isolates — so they
// travel with the scenarios rather than being reconstructed by the renderer.
func ablationCases(cfg Config) ([]string, []scenario.Scenario) {
	wl := workload.CacheFollower.Name()

	var names []string
	var scns []scenario.Scenario
	add := func(name string, sc scenario.Scenario) {
		names = append(names, name)
		scns = append(scns, sc)
	}

	add("no pre-credit burst (vanilla)", poissonScenario(cfg, "xpass", wl, TopoLeafSpine, 0.4))

	thresholds := []int64{1538, 3 << 10, 6 << 10, 12 << 10, 24 << 10, 96 << 10, 200 << 10}
	if cfg.Quick {
		thresholds = []int64{1538, 6 << 10, 200 << 10}
	}
	for _, th := range thresholds {
		name := fmt.Sprintf("aeolus, threshold %dKB", th>>10)
		if th >= 200<<10 {
			name = "aeolus, threshold = buffer (no SPF)"
		}
		sc := poissonScenario(cfg, "xpass+aeolus", wl, TopoLeafSpine, 0.4)
		sc.Threshold = th
		add(name, sc)
	}

	slow := poissonScenario(cfg, "xpass+prio", wl, TopoLeafSpine, 0.4)
	slow.RTO = 10 * sim.Millisecond
	add("burst + RTO-only recovery (10ms)", slow)

	fast := poissonScenario(cfg, "xpass+prio", wl, TopoLeafSpine, 0.4)
	fast.RTO = 20 * sim.Microsecond
	add("burst + RTO-only recovery (20us)", fast)

	return names, scns
}

// AblationScenarios declares the ablation runs.
func AblationScenarios(cfg Config) []scenario.Scenario {
	_, scns := ablationCases(cfg)
	return scns
}

// Ablation isolates the contribution of each Aeolus design choice on one
// baseline (ExpressPass, Cache Follower, two-tier fabric, 40% core load):
//
//   - the selective dropping threshold, swept from 1 packet to effectively
//     "no selective protection" (threshold = whole buffer);
//   - probe/selective-ACK loss detection versus RTO-only recovery (what the
//     §5.5 priority-queueing alternative is forced into), at both a
//     conservative and an aggressive RTO;
//   - no pre-credit burst at all (vanilla ExpressPass).
//
// The table shows why the paper's combination — small threshold plus
// probe-based recovery — is the sweet spot: thresholds barely move the
// small-flow mean until they stop protecting scheduled packets, while
// RTO-only recovery either inflates the tail (10 ms) or burns goodput on
// duplicates (20 µs).
func Ablation(cfg Config) []Table {
	t := Table{ID: "ablation", Title: "Aeolus design-choice ablation (ExpressPass base, Cache Follower, 40% core)",
		Columns: []string{"variant", "p50/us", "p99/us", "mean/us", "in1RTT", "maxFCT/us", "efficiency"}}

	names, scns := ablationCases(cfg)
	for i, r := range RunScenarios(cfg, scns) {
		t.Add(names[i],
			stats.FormatDur(r.Small.P50), stats.FormatDur(r.Small.P99),
			stats.FormatDur(r.Small.Mean), f3(r.FirstRTTFrac),
			stats.FormatDur(r.All.Max), f3(r.Efficiency))
	}

	return []Table{t}
}
