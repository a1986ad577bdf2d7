package experiments

import (
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// This file is the bridge between the serializable scenario form
// (internal/scenario) and the harness types that execute a run. The
// direction of truth is scenario → (Config, RunSpec): every registry
// experiment declares its runs as scenario values, the CLIs build theirs
// from flags or files, and FromScenario lowers them to the harness. The
// split of Config fields is the load-bearing idea:
//
//   - semantic fields (Budget, MinFlows, MaxFlows, Seed) are part of run
//     identity and live in the scenario;
//   - runtime knobs (Parallel, Progress, Audit, OnAudit, Shards,
//     process-wide Impair, Observe, TraceFlow) change how a run is executed
//     or observed, never what it computes, and stay outside.
//
// ForScenario layers the two: a scenario's semantic config over the
// caller's runtime knobs.

// FromScenario lowers a scenario to the harness types: the semantic Config
// it runs under and the RunSpec describing the run. The scenario is
// validated (and normalized) first; workload references resolve here, so a
// missing CDF file or unknown built-in surfaces as an error, not a panic.
func FromScenario(sc *scenario.Scenario) (Config, RunSpec, error) {
	if err := sc.Validate(); err != nil {
		return Config{}, RunSpec{}, err
	}
	wl, err := sc.Workload.Resolve()
	if err != nil {
		return Config{}, RunSpec{}, err
	}
	schemeWl := wl
	if sc.SchemeWorkload != nil {
		if schemeWl, err = sc.SchemeWorkload.Resolve(); err != nil {
			return Config{}, RunSpec{}, err
		}
	}
	cfg := Config{
		Budget:   sc.Budget,
		MinFlows: sc.MinFlows,
		MaxFlows: sc.MaxFlows,
		Seed:     sc.Seed,
	}
	spec := RunSpec{
		Scheme: SchemeSpec{
			ID:        sc.Scheme,
			Workload:  schemeWl,
			RTO:       sc.RTO,
			Threshold: sc.Threshold,
			Seed:      sc.SchemeSeed,
			Opts:      sc.Opts,
		},
		Topo:     sc.Topo,
		Buffer:   sc.Buffer,
		Workload: wl,
		CoreLoad: sc.CoreLoad,
		Flows:    sc.Flows,
		Deadline: sc.Deadline,
		Impair:   sc.Impair,
	}
	if ic := sc.Incast; ic != nil {
		spec.Incast = &workload.IncastConfig{
			Fanin: ic.Fanin, Receiver: ic.Receiver, MsgSize: ic.MsgSize,
			Seed: ic.Seed, StartAt: sim.Time(ic.StartAt), Jitter: ic.Jitter,
		}
	}
	return cfg, spec, nil
}

// mustFromScenario lowers a scenario that is in-tree or already checked; a
// failure is a generator bug.
func mustFromScenario(sc scenario.Scenario) (Config, RunSpec) {
	cfg, spec, err := FromScenario(&sc)
	if err != nil {
		panic("experiments: bad scenario: " + err.Error())
	}
	return cfg, spec
}

// CheckScenario is the full validation of a scenario under the runtime
// knobs rt it will run with: the structural checks of scenario.Validate plus
// the semantic resolution the harness would do (CheckRun) — the topology and
// scheme catalogues, the traffic checks, the shard rule for traces and
// timelines, and a dry application of the impairment timeline against the
// built topology. A scenario error reads exactly like the CLI flag error it
// replaces.
func CheckScenario(rt Config, sc *scenario.Scenario) error {
	sem, spec, err := FromScenario(sc)
	if err != nil {
		return err
	}
	return CheckRun(rt.ForScenario(sem), spec)
}

// ForScenario layers a scenario's semantic config (sem, the first return of
// FromScenario) over the receiver's runtime knobs, yielding the Config the
// run executes under.
func (c Config) ForScenario(sem Config) Config {
	out := c
	out.Budget = sem.Budget
	out.MinFlows = sem.MinFlows
	out.MaxFlows = sem.MaxFlows
	out.Seed = sem.Seed
	return out
}

// RunScenarios runs every scenario under its own semantic config layered
// over rt's runtime knobs, fanned out by forEachPar, results in declaration
// order. A scenario CheckScenario would reject panics.
func RunScenarios(rt Config, scns []scenario.Scenario) []RunResult {
	res := make([]RunResult, len(scns))
	concurrent := min(rt.Workers(), len(scns)) // forEachPar's worker count
	forEachPar(rt, len(scns), func(i int) {
		sem, spec := mustFromScenario(scns[i])
		res[i] = run(rt.ForScenario(sem), spec, concurrent)
	})
	return res
}

// poissonScenario is the shared shape of the figure sweeps: one scheme on a
// catalogue topology driving a built-in workload at a core load, flow count
// derived from the config's budget, seeded so every random stream reduces
// to the run seed (Seed == SchemeSeed, as the paper figures always ran).
func poissonScenario(cfg Config, id, wl, topo string, load float64) scenario.Scenario {
	return scenario.Scenario{
		Topo:       topo,
		Scheme:     id,
		Seed:       cfg.Seed,
		SchemeSeed: cfg.Seed,
		Workload:   &scenario.WorkloadSpec{Name: wl},
		CoreLoad:   load,
		Budget:     cfg.Budget,
		MinFlows:   cfg.MinFlows,
		MaxFlows:   cfg.MaxFlows,
	}
}
