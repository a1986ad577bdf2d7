package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Fig4 reproduces Figure 4: FCT of 0-100KB flows under original Homa and
// the hypothetical Homa with the idealized first RTT (no interference
// between scheduled and unscheduled packets), on Cache Follower and Web
// Server over the two-tier 100G fabric.
func Fig4(cfg Config) []Table {
	cfg.MinFlows = maxI(cfg.MinFlows, 400)
	t := Table{ID: "fig4", Title: "Homa vs hypothetical Homa, 0-100KB flows (leaf-spine, 40% core)",
		Columns: fctCols}
	fctSweep(cfg, &t, []*workload.CDF{workload.CacheFollower, workload.WebServer},
		[]string{"homa", "homa+oracle"}, TopoLeafSpine, 0.4)
	return []Table{t}
}

// Fig4Scenarios declares Fig. 4's sweep; tails need samples, so the flow
// floor rises to 400 as in Fig4.
func Fig4Scenarios(cfg Config) []scenario.Scenario {
	cfg.MinFlows = maxI(cfg.MinFlows, 400)
	return fctSweepScenarios(cfg, []*workload.CDF{workload.CacheFollower, workload.WebServer},
		[]string{"homa", "homa+oracle"}, TopoLeafSpine, 0.4)
}

// Table1 reproduces Table 1: tail FCT (0-100KB), transfer efficiency and
// average FCT (all flows) under hypothetical Homa, eager Homa (20 µs RTO)
// and original Homa (10 ms RTO), on Cache Follower at 54% core load.
func Table1(cfg Config) []Table {
	t := Table{ID: "table1", Title: "Hypothetical vs eager vs original Homa (Cache Follower)",
		Columns: []string{"scheme", "tailFCT(0-100KB)/us", "efficiency", "avgFCT(all)/us"}}
	for _, r := range RunScenarios(cfg, Table1Scenarios(cfg)) {
		t.Add(r.Scheme, stats.FormatDur(r.Small.P999), f2(r.Efficiency),
			stats.FormatDur(r.All.Mean))
	}
	return []Table{t}
}

// Table1Scenarios declares the three Homa variants on Cache Follower at 54%
// core load; tails need samples and collisions, so the flow floor is 400.
func Table1Scenarios(cfg Config) []scenario.Scenario {
	cfg.MinFlows = maxI(cfg.MinFlows, 400)
	wl := workload.CacheFollower.Name()
	var scns []scenario.Scenario
	for _, id := range []string{"homa+oracle", "homa-eager", "homa"} {
		scns = append(scns, poissonScenario(cfg, id, wl, TopoLeafSpine, 0.54))
	}
	return scns
}

// Fig11 reproduces Figure 11: message completion times of a 7-to-1 incast
// on the 10G testbed topology, Homa with and without Aeolus.
func Fig11(cfg Config) []Table {
	return incastMCT(cfg, "fig11", "homa", "homa+aeolus")
}

// Fig11Scenarios declares Fig. 11's incast grid.
func Fig11Scenarios(cfg Config) []scenario.Scenario {
	return incastMCTScenarios(cfg, "homa", "homa+aeolus")
}

// Fig12 reproduces Figure 12: FCT of 0-100KB flows under Homa with and
// without Aeolus across the four workloads, on the two-tier 100G fabric at
// 54% core load (the maximum sustainable Homa load per §5.3).
func Fig12(cfg Config) []Table {
	cfg.MinFlows = maxI(cfg.MinFlows, 400)
	t := Table{ID: "fig12", Title: "Homa ± Aeolus, 0-100KB flows (leaf-spine, 54% core)",
		Columns: fctCols}
	fctSweep(cfg, &t, workload.All, []string{"homa", "homa+aeolus"}, TopoLeafSpine, 0.54)
	return []Table{t}
}

// Fig12Scenarios declares Fig. 12's sweep with the 400-flow floor.
func Fig12Scenarios(cfg Config) []scenario.Scenario {
	cfg.MinFlows = maxI(cfg.MinFlows, 400)
	return fctSweepScenarios(cfg, workload.All, []string{"homa", "homa+aeolus"}, TopoLeafSpine, 0.54)
}

// Fig13 reproduces Figure 13: the number of flows suffering at least one
// retransmission timeout as the load varies, Homa with and without Aeolus,
// across the four workloads.
func Fig13(cfg Config) []Table {
	loads := loadSweep(cfg.Quick)
	t := Table{ID: "fig13", Title: "Flows suffering timeouts vs load (Homa ± Aeolus)",
		Columns: []string{"workload", "load", "flows", "Homa", "Homa+Aeolus"}}
	res := RunScenarios(cfg, Fig13Scenarios(cfg))
	i := 0
	for _, wl := range workload.All {
		for _, load := range loads {
			t.Add(wl.Name(), f2(load), fmt.Sprint(res[i].Total),
				fmt.Sprint(res[i].TimeoutFlows), fmt.Sprint(res[i+1].TimeoutFlows))
			i += 2
		}
	}
	return []Table{t}
}

// Fig13Scenarios declares the (workload × load × scheme) grid of Fig. 13 at
// a quarter of the configured budget.
func Fig13Scenarios(cfg Config) []scenario.Scenario {
	sweep := cfg
	sweep.Budget = cfg.Budget / 4
	var scns []scenario.Scenario
	for _, wl := range workload.All {
		for _, load := range loadSweep(cfg.Quick) {
			for _, id := range []string{"homa", "homa+aeolus"} {
				scns = append(scns, poissonScenario(sweep, id, wl.Name(), TopoLeafSpine, load))
			}
		}
	}
	return scns
}

// Table3 reproduces Table 3: average FCT of all flows under eager Homa
// (20 µs RTO) and Homa+Aeolus across the four workloads at 54% core load.
func Table3(cfg Config) []Table {
	t := Table{ID: "table3", Title: "Avg FCT of all flows: eager Homa vs Homa+Aeolus (54% core)",
		Columns: []string{"workload", "EagerHoma/us", "Homa+Aeolus/us", "reduction", "effEager", "effAeolus"}}
	res := RunScenarios(cfg, Table3Scenarios(cfg))
	for i, wl := range workload.All {
		eager, aeolus := res[2*i], res[2*i+1]
		mean := [2]float64{eager.All.Mean.Microseconds(), aeolus.All.Mean.Microseconds()}
		red := 0.0
		if mean[0] > 0 {
			red = 1 - mean[1]/mean[0]
		}
		t.Add(wl.Name(), f2(mean[0]), f2(mean[1]), f3(red),
			f2(eager.Efficiency), f2(aeolus.Efficiency))
	}
	return []Table{t}
}

// Table3Scenarios declares eager Homa against Homa+Aeolus across the four
// workloads at 54% core load, with the 400-flow floor.
func Table3Scenarios(cfg Config) []scenario.Scenario {
	cfg.MinFlows = maxI(cfg.MinFlows, 400)
	return fctSweepScenarios(cfg, workload.All, []string{"homa-eager", "homa+aeolus"}, TopoLeafSpine, 0.54)
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
