package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Degradation is the figure family the paper never produced (ROADMAP item 4):
// how the six schemes of the Fig. 17/18 studies degrade when the network
// misbehaves. Two scenarios, both on the 24-host microbenchmark switch with a
// 16-to-1 64 KB incast:
//
//   - degrade-loss: uniform random loss on every switch port, swept across
//     loss rates — does first-RTT recovery hold up, and at what FCT/goodput
//     cost?
//   - degrade-flap: the receiver's downlink fails mid-incast and is restored
//     250 µs later, with 1% background loss throughout (the canonical
//     impairment timeline of DESIGN.md §10) — do all flows still complete,
//     and what does the outage cost end to end?
//
// Impairment drops are attributed under netem.DropImpairment, so the tables
// can report injected loss separately from the schemes' own congestive drops.
func Degradation(cfg Config) []Table {
	return []Table{degradeLoss(cfg), degradeFlap(cfg)}
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

// DegradeLossScenarios declares the (scheme × loss rate) grid.
func DegradeLossScenarios(cfg Config) []scenario.Scenario {
	var scns []scenario.Scenario
	for _, id := range fig17Schemes {
		for _, rate := range degradeLossRates(cfg.Quick) {
			scns = append(scns, degradeScenario(cfg, id, LossTimeline(rate)))
		}
	}
	return scns
}

// DegradeFlapScenarios declares, per scheme, the flapped run followed by its
// pristine baseline.
func DegradeFlapScenarios(cfg Config) []scenario.Scenario {
	flap := FlapTimeline(0.01, 50*sim.Microsecond, 250*sim.Microsecond)
	var scns []scenario.Scenario
	for _, id := range fig17Schemes {
		scns = append(scns, degradeScenario(cfg, id, flap)) // flapped
		scns = append(scns, degradeScenario(cfg, id, nil))  // pristine baseline
	}
	return scns
}

// DegradationScenarios declares the full degradation family.
func DegradationScenarios(cfg Config) []scenario.Scenario {
	return append(DegradeLossScenarios(cfg), DegradeFlapScenarios(cfg)...)
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

func degradeLoss(cfg Config) Table {
	t := Table{ID: "degrade-loss",
		Title:   "FCT slowdown and goodput vs injected loss (16-to-1, 64KB each)",
		Columns: []string{"scheme", "loss", "completed", "meanSlowdown", "p99Slowdown", "goodput", "timeouts", "injectedDrops"}}
	rates := degradeLossRates(cfg.Quick)
	res := RunScenarios(cfg, DegradeLossScenarios(cfg))
	i := 0
	for range fig17Schemes {
		for _, rate := range rates {
			r := res[i]
			i++
			t.Add(r.Scheme, fmt.Sprintf("%g", rate),
				fmt.Sprintf("%d/%d", r.Completed, r.Total),
				f1(r.All.MeanSlowdown), f1(r.All.P99Slowdown),
				f3(r.WindowGoodput), fmt.Sprint(r.TimeoutFlows),
				fmt.Sprint(r.Drops[netem.DropImpairment]))
		}
	}
	return t
}

func degradeFlap(cfg Config) Table {
	t := Table{ID: "degrade-flap",
		Title:   "Link-flap recovery: receiver downlink fails 50..250µs, 1% loss throughout",
		Columns: []string{"scheme", "completed", "meanFCT/us", "pristineFCT/us", "p99FCT/us", "timeouts", "injectedDrops"}}
	res := RunScenarios(cfg, DegradeFlapScenarios(cfg))
	for i := 0; i < len(res); i += 2 {
		flapped, pristine := res[i], res[i+1]
		t.Add(flapped.Scheme,
			fmt.Sprintf("%d/%d", flapped.Completed, flapped.Total),
			f1(flapped.All.Mean.Seconds()*1e6), f1(pristine.All.Mean.Seconds()*1e6),
			f1(flapped.All.P99.Seconds()*1e6), fmt.Sprint(flapped.TimeoutFlows),
			fmt.Sprint(flapped.Drops[netem.DropImpairment]))
	}
	return t
}
