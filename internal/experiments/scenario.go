package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// This file is the bridge between the serializable scenario form
// (internal/scenario) and the harness types that execute a run. The
// direction of truth is scenario → (Config, RunSpec): every registry
// experiment declares its runs as scenario values, FromScenario lowers them
// to the harness, and ToScenario lifts a legacy (Config, RunSpec) pair back
// — the CLIs' -dump-scenario path. The split of Config fields is the
// load-bearing idea:
//
//   - semantic fields (Budget, MinFlows, MaxFlows, Seed) are part of run
//     identity and live in the scenario;
//   - runtime knobs (Parallel, Progress, Audit, OnAudit, Shards,
//     process-wide Impair, Observe, Trace) change how a run is executed or
//     observed, never what it computes, and stay outside.
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

// mustFromScenario lowers an in-tree scenario; a failure is a generator bug.
func mustFromScenario(sc scenario.Scenario) (Config, RunSpec) {
	cfg, spec, err := FromScenario(&sc)
	if err != nil {
		panic("experiments: bad in-tree scenario: " + err.Error())
	}
	return cfg, spec
}

// ToScenario lifts a legacy (Config, RunSpec) pair into its scenario value —
// the inverse of FromScenario up to normalization. Only the semantic Config
// fields are captured. Budget and the flow clamps are recorded only when the
// run actually derives its flow count from them (a Poisson workload with
// Flows unset); a fixed Flows or a pure incast leaves them out, keeping the
// digest free of dead knobs.
func ToScenario(cfg Config, spec RunSpec) (*scenario.Scenario, error) {
	if spec.Incast != nil && (spec.Incast.Hosts != 0 || spec.Incast.BaseID != 0) {
		return nil, fmt.Errorf("experiments: incast Hosts/BaseID are derived by Run and not representable in a scenario")
	}
	sc := &scenario.Scenario{
		Topo:       spec.Topo,
		Scheme:     spec.Scheme.ID,
		Opts:       spec.Scheme.Opts,
		RTO:        spec.Scheme.RTO,
		Threshold:  spec.Scheme.Threshold,
		Seed:       cfg.Seed,
		SchemeSeed: spec.Scheme.Seed,
		Workload:   scenario.From(spec.Workload),
		Flows:      spec.Flows,
		Buffer:     spec.Buffer,
		Deadline:   spec.Deadline,
		Impair:     spec.Impair,
	}
	if spec.Scheme.Workload != spec.Workload {
		sc.SchemeWorkload = scenario.From(spec.Scheme.Workload)
	}
	if spec.Workload != nil {
		// The core load only drives the Poisson arrival process; without a
		// workload it is a dead knob that would pollute the digest.
		sc.CoreLoad = spec.CoreLoad
	}
	if spec.Workload != nil && spec.Flows == 0 {
		sc.Budget, sc.MinFlows, sc.MaxFlows = cfg.Budget, cfg.MinFlows, cfg.MaxFlows
	}
	if ic := spec.Incast; ic != nil {
		sc.Incast = &scenario.IncastSpec{
			Fanin: ic.Fanin, Receiver: ic.Receiver, MsgSize: ic.MsgSize,
			Seed: ic.Seed, StartAt: sim.Duration(ic.StartAt), Jitter: ic.Jitter,
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// CheckScenario is the full validation of a scenario file: the structural
// checks of scenario.Validate plus the semantic resolution the harness would
// do (CheckRun) — the topology and scheme catalogues, the traffic checks,
// and a dry application of the impairment timeline against the built
// topology. A scenario error reads exactly like the CLI flag error it
// replaces.
func CheckScenario(sc *scenario.Scenario) error {
	cfg, spec, err := FromScenario(sc)
	if err != nil {
		return err
	}
	return CheckRun(cfg, spec)
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

// RunScenario executes one scenario under the caller's runtime knobs.
func RunScenario(rt Config, sc *scenario.Scenario) (RunResult, error) {
	sem, spec, err := FromScenario(sc)
	if err != nil {
		return RunResult{}, err
	}
	return Run(rt.ForScenario(sem), spec), nil
}

// runScenarios is the scenario-declared counterpart of runAll: every
// scenario runs under its own semantic config layered over rt's runtime
// knobs, fanned across a Pool, results in declaration order.
func runScenarios(rt Config, scns []scenario.Scenario) []RunResult {
	p := NewPool(rt)
	for i := range scns {
		sem, spec := mustFromScenario(scns[i])
		p.SubmitCfg(rt.ForScenario(sem), spec)
	}
	return p.Collect()
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
