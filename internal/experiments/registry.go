package experiments

import (
	"fmt"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/scenario"
)

// Experiment binds an ID to the function regenerating that table/figure and,
// where the figure is a set of simulator runs, to the scenario values that
// declare those runs. Scenarios is the serializable ground truth: anything
// that can run a scenario (the CLIs, a golden test, a foreign harness) can
// reproduce a registry figure cell by cell. Where it is set, runs derives Fn
// from it, except for scale, which measures its cells one at a time. It is
// nil only for the analytic fig2 (no simulation at all) and the instrumented
// fig15/fig16 microbenchmarks, whose in-run probes are observational hooks a
// serialized run cannot carry.
type Experiment struct {
	ID        string
	Paper     string // what the paper shows
	Fn        func(Config) []Table
	Scenarios func(Config) []scenario.Scenario
	// Check returns the error Fn's first bad run under a Config would panic
	// with, running nothing; it is nil only for fig2, which runs nothing.
	Check func(Config) error
}

// runs declares a registry entry whose figure is a set of simulator runs:
// scenarios generates them, and tables renders the results, each beside the
// scenario that produced it. Fn runs the declared scenarios in one
// RunScenarios batch, so it cannot run anything Scenarios does not declare.
func runs(id, paper string, scenarios func(Config) []scenario.Scenario,
	tables func(cfg Config, scns []scenario.Scenario, res []RunResult) []Table) Experiment {
	return Experiment{ID: id, Paper: paper, Scenarios: scenarios, Check: checkScenarios(scenarios),
		Fn: func(cfg Config) []Table {
			s := scenarios(cfg)
			return tables(cfg, s, RunScenarios(cfg, s))
		}}
}

// checkScenarios is the Check of an entry whose runs scenarios declares.
func checkScenarios(scenarios func(Config) []scenario.Scenario) func(Config) error {
	return func(cfg Config) error {
		for _, sc := range scenarios(cfg) {
			if err := CheckScenario(cfg, &sc); err != nil {
				return err
			}
		}
		return nil
	}
}

// Registry lists every reproduced table and figure in paper order.
var Registry = []Experiment{
	runs("fig1", "Gap between proactive baselines and ideal pre-credit handling",
		fig1Scenarios, fig1Tables),
	{ID: "fig2", Paper: "Fraction of flows/bytes finishable in the first RTT vs link speed",
		Fn: fig2}, // analytic: no simulation runs
	runs("fig3", "ExpressPass vs hypothetical ExpressPass, small-flow FCT",
		fig3.scenarios, fig3.tables),
	runs("fig4", "Homa vs hypothetical Homa, small-flow FCT",
		fig4.scenarios, fig4.tables),
	runs("table1", "Hypothetical vs eager vs original Homa",
		table1Scenarios, table1Tables),
	runs("fig8", "Testbed 7-to-1 incast MCT, ExpressPass ± Aeolus",
		fig8.scenarios, fig8.tables),
	runs("fig9", "ExpressPass ± Aeolus small-flow FCT, four workloads",
		fig9.scenarios, fig9.tables),
	runs("fig10", "ExpressPass ± Aeolus avg small-flow FCT vs load",
		fig10Grid.scenarios, fig10Tables),
	runs("fig11", "Testbed 7-to-1 incast MCT, Homa ± Aeolus",
		fig11.scenarios, fig11.tables),
	runs("fig12", "Homa ± Aeolus small-flow FCT, four workloads",
		fig12.scenarios, fig12.tables),
	runs("fig13", "Flows suffering timeouts vs load, Homa ± Aeolus",
		fig13Grid.scenarios, fig13Tables),
	runs("table3", "Avg FCT of all flows, eager Homa vs Homa+Aeolus",
		table3Grid.scenarios, table3Tables),
	runs("fig14", "NDP ± Aeolus small-flow FCT, four workloads",
		fig14.scenarios, fig14.tables),
	{ID: "fig15", Paper: "Queue length vs selective dropping threshold",
		Fn: fig15, Check: checkMicro}, // instrumented microbenchmark: in-run queue probes
	{ID: "fig16", Paper: "First-RTT utilization vs fan-in and threshold",
		Fn: fig16, Check: checkMicro}, // instrumented microbenchmark: in-run utilization probes
	runs("table4", "Aeolus vs priority queueing: ambiguity",
		table4Scenarios, table4Tables),
	runs("table5", "Aeolus vs priority queueing: shared-buffer incast",
		table5Scenarios, table5Tables),
	runs("fig17", "Heavy-incast FCT slowdown, six schemes",
		fig17Scenarios, fig17Tables),
	runs("fig18", "Goodput vs offered load, six schemes",
		fig18Scenarios, fig18Tables),
	runs("ablation", "Design-choice ablation: threshold sweep, probe vs RTO-only recovery",
		ablationScenarios, ablationTables),
	runs("degrade", "Degradation sweep under injected loss and link flap (not in the paper)",
		degradeScenarios, degradeTables),
	{ID: "scale", Paper: "Open-loop scale sweep: simulator throughput and memory vs fabric size (not in the paper)",
		Fn: scaleSweep, Scenarios: ScaleScenarios, Check: checkScenarios(ScaleScenarios)}, // measures its cells one at a time
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Registry))
	for _, e := range Registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("unknown experiment %q (have: %v)", id, ids)
}
