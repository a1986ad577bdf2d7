// Package bench is the repository's benchmark: four workloads that time the
// simulator end to end through its public entry points, check every output
// against pinned digests, and attribute the time to the internal packages
// from a CPU profile. cmd/aeolusperf is its command; README.md lists the
// workloads and metrics and explains how to read the results.
package bench

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Workload is one named set of inputs the benchmark runs. Every rep of a
// workload runs its plan once, in a fresh child process.
type Workload struct {
	Name string
	plan func(seed uint64, tiny bool) plan
}

// plan is what one rep executes. Exactly one of scenarios and experiments is
// set: scenario runs go through experiments.Run one after another under cfg's
// runtime knobs; experiment IDs go through Experiment.Fn with cfg as given.
type plan struct {
	cfg         experiments.Config
	scenarios   []scenario.Scenario
	experiments []string
}

// Workloads lists the benchmark's workloads. Their sizes are set so a rep
// takes one to five seconds on a 2-core host, which lets a 20-second run take
// enough reps for a steady median. Why each one exists:
//
//   - paper-quick is what a user pays to regenerate the paper: 110 short
//     runs over all 10 schemes and 5 catalogue fabrics on 2 pool workers.
//   - scale-h256 is one long sequential run on a 256-host Clos, where engine
//     dispatch and the port path dominate.
//   - scale-h256-s2 is the same run on 2 shards, the only workload that
//     crosses sim.ShardGroup barriers and netem.CrossLink handoffs.
//   - homa-ndp-audited drives large WebSearch flows through Homa's grants and
//     priority queues and NDP's trimming and pulls, which the scale runs never
//     reach, with the conservation auditor on.
var Workloads = []Workload{
	{Name: "paper-quick", plan: paperQuick},
	{Name: "scale-h256", plan: func(seed uint64, tiny bool) plan { return scalePlan(seed, tiny, 1) }},
	{Name: "scale-h256-s2", plan: func(seed uint64, tiny bool) plan { return scalePlan(seed, tiny, 2) }},
	{Name: "homa-ndp-audited", plan: homaNDP},
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, WorkloadNames())
}

// WorkloadNames returns the workload names in order.
func WorkloadNames() []string {
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return names
}

// paperQuickIDs are the registry experiments paper-quick regenerates: every
// entry whose Quick pass takes about a second or less at an 8 MiB budget.
// Together they run all 10 schemes on all 5 catalogue fabrics. The Poisson
// load sweeps left out (fig9, fig10, fig12, fig13, table3, fig18) and the
// scale sweep take 3 to 12 s each because of their flow-count floors, too
// long for a steady median within one run of the benchmark.
var paperQuickIDs = []string{"fig1", "fig2", "fig3", "fig4", "table1", "fig8", "fig11",
	"fig14", "fig15", "fig16", "table4", "table5", "fig17", "ablation", "degrade"}

func paperQuick(seed uint64, tiny bool) plan {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Quick = true
	cfg.Budget = 8 << 20
	cfg.Parallel = 2
	ids := paperQuickIDs
	if tiny {
		ids = []string{"fig8"}
	}
	return plan{cfg: cfg, experiments: ids}
}

// scaleFlowsPerHost is the open-loop offered work per host of the scale
// workloads, a fifth of the registry sweep's, so a rep takes about 2 s.
const scaleFlowsPerHost = 20

// scalePlan is the registry's scale cell at width 16 (256 hosts) and core load
// 0.8, with audit off and the given shard count; tiny runs 5 flows per host
// at width 8.
func scalePlan(seed uint64, tiny bool, shards int) plan {
	width, perHost := 16, scaleFlowsPerHost
	if tiny {
		width, perHost = 8, 5
	}
	sc := experiments.ScaleScenario(experiments.Config{Seed: seed}, width, 0.8)
	sc.Flows = experiments.ScaleFabric(width).Hosts() * perHost
	return plan{cfg: experiments.Config{Shards: shards}, scenarios: []scenario.Scenario{sc}}
}

// homaNDP runs WebSearch at core load 0.6 on the 64-host leaf-spine fabric,
// first under Homa+Aeolus and then under NDP+Aeolus, audited. Like the
// registry's scenarios it sets Seed == SchemeSeed, so the Poisson trace
// (seeded by their XOR) is the same at every seed and the seed moves only the
// transports' own random streams: the offered work stays equal across seeds.
func homaNDP(seed uint64, tiny bool) plan {
	flows := 500
	if tiny {
		flows = 8
	}
	var scns []scenario.Scenario
	for _, id := range []string{"homa+aeolus", "ndp+aeolus"} {
		scns = append(scns, scenario.Scenario{
			Topo:       experiments.TopoLeafSpine,
			Scheme:     id,
			Seed:       seed,
			SchemeSeed: seed,
			Workload:   &scenario.WorkloadSpec{Name: workload.WebSearch.Name()},
			CoreLoad:   0.6,
			Flows:      flows,
		})
	}
	return plan{cfg: experiments.Config{Audit: true}, scenarios: scns}
}
