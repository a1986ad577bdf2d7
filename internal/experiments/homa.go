package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// fig4 reproduces Figure 4: FCT of 0-100KB flows under original Homa and
// the hypothetical Homa with the idealized first RTT (no interference
// between scheduled and unscheduled packets), on Cache Follower and Web
// Server over the two-tier 100G fabric.
var fig4 = fctGrid{id: "fig4",
	title:   "Homa vs hypothetical Homa, 0-100KB flows (leaf-spine, 40% core)",
	wls:     []*workload.CDF{workload.CacheFollower, workload.WebServer},
	schemes: []string{"homa", "homa+oracle"}, topo: TopoLeafSpine, load: 0.4,
	minFlows: 400}

// table1Scenarios declares Table 1's three Homa variants — hypothetical,
// eager (20 µs RTO) and original (10 ms RTO) — on Cache Follower at 54% core
// load; tails need samples and collisions, so the flow floor is 400.
func table1Scenarios(cfg Config) []scenario.Scenario {
	cfg.MinFlows = max(cfg.MinFlows, 400)
	wl := workload.CacheFollower.Name()
	var scns []scenario.Scenario
	for _, id := range []string{"homa+oracle", "homa-eager", "homa"} {
		scns = append(scns, poissonScenario(cfg, id, wl, TopoLeafSpine, 0.54))
	}
	return scns
}

// table1Tables renders Table 1: tail FCT (0-100KB), transfer efficiency and
// average FCT (all flows).
func table1Tables(_ Config, _ []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "table1", Title: "Hypothetical vs eager vs original Homa (Cache Follower)",
		Columns: []string{"scheme", "tailFCT(0-100KB)/us", "efficiency", "avgFCT(all)/us"}}
	for _, r := range res {
		t.Add(r.Scheme, stats.FormatDur(r.Small.P999), f2(r.Efficiency),
			stats.FormatDur(r.All.Mean))
	}
	return []Table{t}
}

// fig11 reproduces Figure 11: message completion times of a 7-to-1 incast
// on the 10G testbed topology, Homa with and without Aeolus.
var fig11 = incastStudy{id: "fig11", base: "homa", aeolus: "homa+aeolus"}

// fig12 reproduces Figure 12: FCT of 0-100KB flows under Homa with and
// without Aeolus across the four workloads, on the two-tier 100G fabric at
// 54% core load (the maximum sustainable Homa load per §5.3).
var fig12 = fctGrid{id: "fig12",
	title:   "Homa ± Aeolus, 0-100KB flows (leaf-spine, 54% core)",
	wls:     workload.All,
	schemes: []string{"homa", "homa+aeolus"}, topo: TopoLeafSpine, load: 0.54,
	minFlows: 400}

// fig13Grid declares Figure 13's runs: Homa with and without Aeolus as the
// load varies, across the four workloads.
var fig13Grid = loadGrid{schemes: []string{"homa", "homa+aeolus"}, topo: TopoLeafSpine}

// fig13Tables renders Figure 13: the number of flows suffering at least one
// retransmission timeout in each (workload, load) pair of runs.
func fig13Tables(_ Config, scns []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "fig13", Title: "Flows suffering timeouts vs load (Homa ± Aeolus)",
		Columns: []string{"workload", "load", "flows", "Homa", "Homa+Aeolus"}}
	for i := 0; i < len(res); i += len(fig13Grid.schemes) {
		t.Add(scns[i].Workload.Name, f2(scns[i].CoreLoad), fmt.Sprint(res[i].Total),
			fmt.Sprint(res[i].TimeoutFlows), fmt.Sprint(res[i+1].TimeoutFlows))
	}
	return []Table{t}
}

// table3Grid declares Table 3's runs: eager Homa (20 µs RTO) against
// Homa+Aeolus across the four workloads at 54% core load.
var table3Grid = fctGrid{wls: workload.All,
	schemes: []string{"homa-eager", "homa+aeolus"}, topo: TopoLeafSpine, load: 0.54,
	minFlows: 400}

// table3Tables renders Table 3: the average FCT of all flows of each
// workload's pair of runs, Aeolus's reduction, and both efficiencies.
func table3Tables(_ Config, scns []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "table3", Title: "Avg FCT of all flows: eager Homa vs Homa+Aeolus (54% core)",
		Columns: []string{"workload", "EagerHoma/us", "Homa+Aeolus/us", "reduction", "effEager", "effAeolus"}}
	for i := 0; i < len(res); i += len(table3Grid.schemes) {
		eager, aeolus := res[i], res[i+1]
		mean := [2]float64{eager.All.Mean.Microseconds(), aeolus.All.Mean.Microseconds()}
		red := 0.0
		if mean[0] > 0 {
			red = 1 - mean[1]/mean[0]
		}
		t.Add(scns[i].Workload.Name, f2(mean[0]), f2(mean[1]), f3(red),
			f2(eager.Efficiency), f2(aeolus.Efficiency))
	}
	return []Table{t}
}
