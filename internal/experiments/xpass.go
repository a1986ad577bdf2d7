package experiments

import (
	"fmt"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// fctCols are the small-flow FCT summary columns shared by the CDF-style
// figures: the percentiles the paper's distribution plots encode.
var fctCols = []string{"scheme", "workload", "N", "p25/us", "p50/us", "p90/us", "p99/us", "p99.9/us", "mean/us", "in1RTT"}

func addFCTRow(t *Table, wl string, r RunResult) {
	recs := r.records
	small := make([]stats.FlowRecord, 0, len(recs))
	for _, rec := range recs {
		if rec.Size < 100_000 {
			small = append(small, rec)
		}
	}
	s := r.Small
	p25 := percentileOf(small, 0.25)
	t.Add(r.Scheme, wl, fmt.Sprint(s.N),
		stats.FormatDur(p25), stats.FormatDur(s.P50), stats.FormatDur(s.P90),
		stats.FormatDur(s.P99), stats.FormatDur(s.P999), stats.FormatDur(s.Mean),
		f3(r.FirstRTTFrac))
}

func percentileOf(recs []stats.FlowRecord, p float64) sim.Duration {
	if len(recs) == 0 {
		return 0
	}
	fcts := make([]sim.Duration, len(recs))
	for i, r := range recs {
		fcts[i] = r.FCT()
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	idx := int(p*float64(len(fcts))) - 1
	if idx < 0 {
		idx = 0
	}
	return fcts[idx]
}

// fctGrid declares the small-flow FCT grid: one run per (workload, scheme)
// pair on one fabric at one core load, nested in the order a serial double
// loop would produce, and rendered as one fctCols row per run.
type fctGrid struct {
	id, title string
	wls       []*workload.CDF
	schemes   []string
	topo      string
	load      float64
	minFlows  int // flow floor, where tails need samples
}

func (g fctGrid) scenarios(cfg Config) []scenario.Scenario {
	cfg.MinFlows = max(cfg.MinFlows, g.minFlows)
	var scns []scenario.Scenario
	for _, wl := range g.wls {
		for _, id := range g.schemes {
			scns = append(scns, poissonScenario(cfg, id, wl.Name(), g.topo, g.load))
		}
	}
	return scns
}

func (g fctGrid) tables(_ Config, scns []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: g.id, Title: g.title, Columns: fctCols}
	for i, r := range res {
		addFCTRow(&t, scns[i].Workload.Name, r)
	}
	return []Table{t}
}

// fig1Scenarios declares Figure 1's four runs: each proactive baseline and
// its idealized oracle, on Cache Follower at 40% core load over the fabric
// its own paper used.
func fig1Scenarios(cfg Config) []scenario.Scenario {
	wl := workload.CacheFollower.Name()
	return []scenario.Scenario{
		poissonScenario(cfg, "xpass", wl, TopoFatTree, 0.4),
		poissonScenario(cfg, "xpass+oracle", wl, TopoFatTree, 0.4),
		poissonScenario(cfg, "homa", wl, TopoLeafSpine, 0.4),
		poissonScenario(cfg, "homa+oracle", wl, TopoLeafSpine, 0.4),
	}
}

// fig1Tables renders Figure 1's gap between the existing proactive
// baselines and the idealized pre-credit handling: (a) ExpressPass wastes
// the first RTT — mean small-flow FCT vs the hypothetical ideal; (b) Homa's
// blind burst — tail small-flow FCT vs the hypothetical ideal.
func fig1Tables(_ Config, scns []scenario.Scenario, res []RunResult) []Table {
	a := Table{ID: "fig1a", Title: "Waiting credits in the pre-credit phase (ExpressPass vs ideal)",
		Columns: fctCols}
	b := Table{ID: "fig1b", Title: "Blind burst in the pre-credit phase (Homa vs ideal)",
		Columns: fctCols}
	for i, t := range []*Table{&a, &a, &b, &b} {
		addFCTRow(t, scns[i].Workload.Name, res[i])
	}
	return []Table{a, b}
}

// fig3 reproduces Figure 3: FCT of 0-100KB flows under original ExpressPass
// and the hypothetical ExpressPass with the idealized pre-credit solution,
// on Cache Follower and Web Server over the 100G fat-tree.
var fig3 = fctGrid{id: "fig3",
	title:   "ExpressPass vs hypothetical ExpressPass, 0-100KB flows (fat-tree, 40% core)",
	wls:     []*workload.CDF{workload.CacheFollower, workload.WebServer},
	schemes: []string{"xpass", "xpass+oracle"}, topo: TopoFatTree, load: 0.4}

// incastStudy declares a testbed 7-to-1 incast study of a scheme and its
// Aeolus counterpart on the 10G single switch: every message size, several
// rounds each, the round index folded into both seeds so rounds are
// independent draws. Its table summarizes the MCTs of each size's rounds.
type incastStudy struct {
	id, base, aeolus string
}

// incastMCTShape returns the message sizes and repetition rounds of the
// testbed incast studies, trimmed under -quick.
func incastMCTShape(cfg Config) ([]int64, int) {
	if cfg.Quick {
		return []int64{30_000, 50_000}, 5
	}
	return []int64{30_000, 35_000, 40_000, 45_000, 50_000}, 20
}

func (s incastStudy) scenarios(cfg Config) []scenario.Scenario {
	sizes, rounds := incastMCTShape(cfg)
	var scns []scenario.Scenario
	for _, schemeID := range []string{s.base, s.aeolus} {
		for _, size := range sizes {
			for round := 0; round < rounds; round++ {
				scns = append(scns, scenario.Scenario{
					Topo:       TopoSingleSwitch,
					Scheme:     schemeID,
					Seed:       cfg.Seed,
					SchemeSeed: cfg.Seed + uint64(round),
					// The testbed switch shares its buffer dynamically
					// across ports; the congested port's effective share is
					// well under the chip total. 100 KB makes the 7-way
					// burst (7 x BDP = 126 KB) overflow as the hardware did.
					Buffer: 100 << 10,
					Incast: &scenario.IncastSpec{
						Fanin: 7, MsgSize: size,
						Seed:    cfg.Seed + uint64(round),
						StartAt: 10 * sim.Microsecond,
					},
				})
			}
		}
	}
	return scns
}

func (s incastStudy) tables(cfg Config, scns []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: s.id, Title: "7-to-1 incast MCT on the 10G testbed topology",
		Columns: []string{"scheme", "msgKB", "rounds", "p50/us", "mean/us", "p99/us", "max/us"}}
	_, rounds := incastMCTShape(cfg)
	for i := 0; i < len(res); i += rounds {
		var recs []stats.FlowRecord
		for _, r := range res[i : i+rounds] {
			recs = append(recs, r.records...)
		}
		m := stats.Summarize(recs)
		t.Add(res[i].Scheme, fmt.Sprint(scns[i].Incast.MsgSize/1000), fmt.Sprint(rounds),
			stats.FormatDur(m.P50), stats.FormatDur(m.Mean),
			stats.FormatDur(m.P99), stats.FormatDur(m.Max))
	}
	return []Table{t}
}

// fig8 reproduces Figure 8: message completion times of a 7-to-1 incast on
// the 10G single-switch testbed, ExpressPass with and without Aeolus, for
// message sizes 30-50 KB.
var fig8 = incastStudy{id: "fig8", base: "xpass", aeolus: "xpass+aeolus"}

// fig9 reproduces Figure 9: FCT of 0-100KB flows under ExpressPass with and
// without Aeolus across the four workloads, on the oversubscribed fat-tree
// at 40% core load.
var fig9 = fctGrid{id: "fig9",
	title:   "ExpressPass ± Aeolus, 0-100KB flows (fat-tree, 40% core)",
	wls:     workload.All,
	schemes: []string{"xpass", "xpass+aeolus"}, topo: TopoFatTree, load: 0.4}

// loadGrid declares the (workload × load × scheme) grid of the vs-load
// figures (Figs. 10 and 13), its loads trimmed under -quick, at a quarter of
// the configured budget — many runs; keep each lighter.
type loadGrid struct {
	schemes []string
	topo    string
}

func (g loadGrid) scenarios(cfg Config) []scenario.Scenario {
	loads := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if cfg.Quick {
		loads = []float64{0.2, 0.5, 0.8}
	}
	sweep := cfg
	sweep.Budget = cfg.Budget / 4
	var scns []scenario.Scenario
	for _, wl := range workload.All {
		for _, load := range loads {
			for _, id := range g.schemes {
				scns = append(scns, poissonScenario(sweep, id, wl.Name(), g.topo, load))
			}
		}
	}
	return scns
}

// fig10Grid declares Figure 10's runs: ExpressPass with and without Aeolus
// as the load varies from 20% to 90%, across the four workloads.
var fig10Grid = loadGrid{schemes: []string{"xpass", "xpass+aeolus"}, topo: TopoFatTree}

// fig10Tables renders Figure 10: the average FCT of 0-100KB flows of each
// (workload, load) pair of runs, and Aeolus's improvement.
func fig10Tables(_ Config, scns []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "fig10", Title: "Avg FCT of 0-100KB flows vs load (ExpressPass ± Aeolus)",
		Columns: []string{"workload", "load", "ExpressPass/us", "ExpressPass+Aeolus/us", "improvement"}}
	for i := 0; i < len(res); i += len(fig10Grid.schemes) {
		mean := [2]float64{res[i].Small.Mean.Microseconds(), res[i+1].Small.Mean.Microseconds()}
		impr := 0.0
		if mean[0] > 0 {
			impr = 1 - mean[1]/mean[0]
		}
		t.Add(scns[i].Workload.Name, f2(scns[i].CoreLoad), f2(mean[0]), f2(mean[1]), f3(impr))
	}
	return []Table{t}
}

// table4Scenarios declares Table 4's trapped-vs-lost ambiguity of the
// priority-queueing alternative: ExpressPass+Aeolus against ExpressPass with
// two shared-buffer priority queues recovering only by RTO (10 ms and
// 20 µs), on Cache Follower over the 100G fat-tree.
func table4Scenarios(cfg Config) []scenario.Scenario {
	wl := workload.CacheFollower.Name()
	aeolus := poissonScenario(cfg, "xpass+aeolus", wl, TopoFatTree, 0.4)
	prioSlow := poissonScenario(cfg, "xpass+prio", wl, TopoFatTree, 0.4)
	prioSlow.RTO = 10 * sim.Millisecond
	prioFast := poissonScenario(cfg, "xpass+prio", wl, TopoFatTree, 0.4)
	prioFast.RTO = 20 * sim.Microsecond
	return []scenario.Scenario{aeolus, prioSlow, prioFast}
}

// table4Tables renders Table 4: maximum FCT and transfer efficiency.
func table4Tables(_ Config, _ []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "table4", Title: "Aeolus vs priority queueing: ambiguity (Cache Follower, fat-tree)",
		Columns: []string{"scheme", "maxFCT/us", "efficiency"}}
	for _, r := range res {
		t.Add(r.Scheme, stats.FormatDur(r.All.Max), f2(r.Efficiency))
	}
	return []Table{t}
}

// table5Scenarios declares Table 5's shared-buffer starvation of priority
// queueing: a 20-to-1 incast of 400 KB messages into one 100G port with a
// shared 200KB buffer, Aeolus selective dropping against the 10 ms RTO-only
// priority-queue alternative.
func table5Scenarios(cfg Config) []scenario.Scenario {
	aeolus := scenario.Scenario{
		Topo:       TopoMicro,
		Scheme:     "xpass+aeolus",
		Seed:       cfg.Seed,
		SchemeSeed: cfg.Seed,
		Incast: &scenario.IncastSpec{
			Fanin: 20, MsgSize: 400_000, Seed: cfg.Seed,
			StartAt: 10 * sim.Microsecond,
		},
	}
	prio := aeolus
	prio.Scheme = "xpass+prio"
	prio.RTO = 10 * sim.Millisecond
	return []scenario.Scenario{aeolus, prio}
}

// table5Tables renders Table 5: average and maximum FCT.
func table5Tables(_ Config, _ []scenario.Scenario, res []RunResult) []Table {
	t := Table{ID: "table5", Title: "Aeolus vs priority queueing: 20-to-1 incast, 400KB each",
		Columns: []string{"scheme", "avgFCT/us", "maxFCT/us"}}
	for _, r := range res {
		t.Add(r.Scheme, stats.FormatDur(r.All.Mean), stats.FormatDur(r.All.Max))
	}
	return []Table{t}
}
