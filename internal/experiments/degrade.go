package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// degradeScenarios declares the degradation sweep, the figure family the
// paper never produced (ROADMAP item 4): how the six schemes of the Fig. 17/18
// studies degrade when the network misbehaves. Two studies run in one batch,
// both on the 24-host microbenchmark switch with a 16-to-1 64 KB incast:
//
//   - degrade-loss: uniform random loss on every switch port, swept across
//     loss rates — does first-RTT recovery hold up, and at what FCT/goodput
//     cost? One run per (scheme × loss rate).
//   - degrade-flap: the receiver's downlink fails mid-incast and is restored
//     250 µs later, with 1% background loss throughout (the canonical
//     impairment timeline of DESIGN.md §10) — do all flows still complete,
//     and what does the outage cost end to end? Per scheme, the flapped run
//     followed by its pristine baseline.
//
// Impairment drops are attributed under netem.DropImpairment, so the tables
// can report injected loss separately from the schemes' own congestive drops.
func degradeScenarios(cfg Config) []scenario.Scenario {
	var scns []scenario.Scenario
	for _, id := range fig17Schemes {
		for _, rate := range degradeLossRates(cfg.Quick) {
			scns = append(scns, degradeScenario(cfg, id, LossTimeline(rate)))
		}
	}
	flap := FlapTimeline(0.01, 50*sim.Microsecond, 250*sim.Microsecond)
	for _, id := range fig17Schemes {
		scns = append(scns, degradeScenario(cfg, id, flap)) // flapped
		scns = append(scns, degradeScenario(cfg, id, nil))  // pristine baseline
	}
	return scns
}

// degradeScenario builds the shared incast run for one scheme. The traffic is
// pure incast, but the scheme still needs a size distribution to shape its
// unscheduled window — hence the scheme-workload without a traffic workload.
func degradeScenario(cfg Config, id string, tl *netem.Timeline) scenario.Scenario {
	sc := scenario.Scenario{
		Topo: TopoMicro, Scheme: id,
		Seed: cfg.Seed, SchemeSeed: cfg.Seed,
		SchemeWorkload: &scenario.WorkloadSpec{Name: workload.WebServer.Name()},
		Incast: &scenario.IncastSpec{Fanin: 16, Receiver: 0, MsgSize: 64_000,
			Seed: cfg.Seed, StartAt: 10 * sim.Microsecond},
		Deadline: sim.Duration(sim.Second),
		Impair:   tl,
	}
	if id == "homa" || id == "homa+aeolus" {
		sc.RTO = 40 * sim.Microsecond
	}
	return sc
}

// degradeLossRates is the injected-loss axis of the degradation study.
func degradeLossRates(quick bool) []float64 {
	if quick {
		return []float64{0, 0.01}
	}
	return []float64{0, 0.001, 0.01, 0.05}
}

// LossTimeline scripts uniform random loss on every switch port from t=0.
// A zero rate means no impairment (nil timeline).
func LossTimeline(rate float64) *netem.Timeline {
	if rate == 0 {
		return nil
	}
	return &netem.Timeline{Steps: []netem.TimelineStep{
		{At: 0, Target: "sw0->*", Action: netem.ActLoss, Rate: rate},
	}}
}

// FlapTimeline scripts the canonical chaos scenario: background random loss
// on every switch port for the whole run, plus a failure of the receiver's
// downlink at failAt, restored at restoreAt.
func FlapTimeline(lossRate float64, failAt, restoreAt sim.Duration) *netem.Timeline {
	return &netem.Timeline{Steps: []netem.TimelineStep{
		{At: 0, Target: "sw0->*", Action: netem.ActLoss, Rate: lossRate},
		{At: failAt, Target: "sw0->h0", Action: netem.ActFail},
		{At: restoreAt, Target: "sw0->h0", Action: netem.ActRestore},
	}}
}

// degradeTables renders the loss grid's runs, one row each, and the flap
// pairs that follow them, one row per scheme.
func degradeTables(cfg Config, _ []scenario.Scenario, res []RunResult) []Table {
	loss := Table{ID: "degrade-loss",
		Title:   "FCT slowdown and goodput vs injected loss (16-to-1, 64KB each)",
		Columns: []string{"scheme", "loss", "completed", "meanSlowdown", "p99Slowdown", "goodput", "timeouts", "injectedDrops"}}
	rates := degradeLossRates(cfg.Quick)
	grid, flaps := res[:len(fig17Schemes)*len(rates)], res[len(fig17Schemes)*len(rates):]
	for i, r := range grid {
		loss.Add(r.Scheme, fmt.Sprintf("%g", rates[i%len(rates)]),
			fmt.Sprintf("%d/%d", r.Completed, r.Total),
			f1(r.All.MeanSlowdown), f1(r.All.P99Slowdown),
			f3(r.WindowGoodput), fmt.Sprint(r.TimeoutFlows),
			fmt.Sprint(r.Drops[netem.DropImpairment]))
	}

	flap := Table{ID: "degrade-flap",
		Title:   "Link-flap recovery: receiver downlink fails 50..250µs, 1% loss throughout",
		Columns: []string{"scheme", "completed", "meanFCT/us", "pristineFCT/us", "p99FCT/us", "timeouts", "injectedDrops"}}
	for i := 0; i < len(flaps); i += 2 {
		flapped, pristine := flaps[i], flaps[i+1]
		flap.Add(flapped.Scheme,
			fmt.Sprintf("%d/%d", flapped.Completed, flapped.Total),
			f1(flapped.All.Mean.Seconds()*1e6), f1(pristine.All.Mean.Seconds()*1e6),
			f1(flapped.All.P99.Seconds()*1e6), fmt.Sprint(flapped.TimeoutFlows),
			fmt.Sprint(flapped.Drops[netem.DropImpairment]))
	}
	return []Table{loss, flap}
}
