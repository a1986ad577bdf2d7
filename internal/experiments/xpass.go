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

// Fig1 reproduces Figure 1: the gap between the existing proactive
// baselines and the idealized pre-credit handling, on Cache Follower at 40%
// core load. (a) ExpressPass wastes the first RTT — mean small-flow FCT vs
// the hypothetical ideal; (b) Homa's blind burst — tail small-flow FCT vs
// the hypothetical ideal.
func Fig1(cfg Config) []Table {
	wl := workload.CacheFollower
	a := Table{ID: "fig1a", Title: "Waiting credits in the pre-credit phase (ExpressPass vs ideal)",
		Columns: fctCols}
	b := Table{ID: "fig1b", Title: "Blind burst in the pre-credit phase (Homa vs ideal)",
		Columns: fctCols}
	res := RunScenarios(cfg, Fig1Scenarios(cfg))
	addFCTRow(&a, wl.Name(), res[0])
	addFCTRow(&a, wl.Name(), res[1])
	addFCTRow(&b, wl.Name(), res[2])
	addFCTRow(&b, wl.Name(), res[3])
	return []Table{a, b}
}

// Fig1Scenarios declares Fig. 1's four runs: each proactive baseline and
// its idealized oracle, on the fabric its own paper used.
func Fig1Scenarios(cfg Config) []scenario.Scenario {
	wl := workload.CacheFollower.Name()
	return []scenario.Scenario{
		poissonScenario(cfg, "xpass", wl, TopoFatTree, 0.4),
		poissonScenario(cfg, "xpass+oracle", wl, TopoFatTree, 0.4),
		poissonScenario(cfg, "homa", wl, TopoLeafSpine, 0.4),
		poissonScenario(cfg, "homa+oracle", wl, TopoLeafSpine, 0.4),
	}
}

// Fig3 reproduces Figure 3: FCT of 0-100KB flows under original ExpressPass
// and the hypothetical ExpressPass with the idealized pre-credit solution,
// on Cache Follower and Web Server over the 100G fat-tree.
func Fig3(cfg Config) []Table {
	t := Table{ID: "fig3", Title: "ExpressPass vs hypothetical ExpressPass, 0-100KB flows (fat-tree, 40% core)",
		Columns: fctCols}
	fctSweep(cfg, &t, []*workload.CDF{workload.CacheFollower, workload.WebServer},
		[]string{"xpass", "xpass+oracle"}, TopoFatTree, 0.4)
	return []Table{t}
}

// Fig3Scenarios declares Fig. 3's sweep.
func Fig3Scenarios(cfg Config) []scenario.Scenario {
	return fctSweepScenarios(cfg, []*workload.CDF{workload.CacheFollower, workload.WebServer},
		[]string{"xpass", "xpass+oracle"}, TopoFatTree, 0.4)
}

// fctSweepScenarios declares one run per (workload, scheme) pair, nested in
// the order a serial double loop would produce.
func fctSweepScenarios(cfg Config, wls []*workload.CDF, ids []string, topo string, load float64) []scenario.Scenario {
	var scns []scenario.Scenario
	for _, wl := range wls {
		for _, id := range ids {
			scns = append(scns, poissonScenario(cfg, id, wl.Name(), topo, load))
		}
	}
	return scns
}

// fctSweep runs one simulation per (workload, scheme) pair — all cells
// fanned out by RunScenarios — and tabulates the small-flow FCT rows.
func fctSweep(cfg Config, t *Table, wls []*workload.CDF, ids []string, topo string, load float64) {
	var names []string
	for _, wl := range wls {
		for range ids {
			names = append(names, wl.Name())
		}
	}
	for i, r := range RunScenarios(cfg, fctSweepScenarios(cfg, wls, ids, topo, load)) {
		addFCTRow(t, names[i], r)
	}
}

// Fig8 reproduces Figure 8: message completion times of a 7-to-1 incast on
// the 10G single-switch testbed, ExpressPass with and without Aeolus, for
// message sizes 30-50 KB.
func Fig8(cfg Config) []Table {
	return incastMCT(cfg, "fig8", "xpass", "xpass+aeolus")
}

// Fig8Scenarios declares Fig. 8's incast grid.
func Fig8Scenarios(cfg Config) []scenario.Scenario {
	return incastMCTScenarios(cfg, "xpass", "xpass+aeolus")
}

// incastMCTShape returns the message sizes and repetition rounds of the
// testbed incast studies, trimmed under -quick.
func incastMCTShape(cfg Config) ([]int64, int) {
	if cfg.Quick {
		return []int64{30_000, 50_000}, 5
	}
	return []int64{30_000, 35_000, 40_000, 45_000, 50_000}, 20
}

// incastMCTScenarios declares the testbed 7-to-1 incast grid for two
// schemes: every message size, several rounds each, the round index folded
// into both seeds so rounds are independent draws.
func incastMCTScenarios(cfg Config, base, aeolus string) []scenario.Scenario {
	sizes, rounds := incastMCTShape(cfg)
	var scns []scenario.Scenario
	for _, schemeID := range []string{base, aeolus} {
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

// incastMCT runs the testbed 7-to-1 incast for two schemes across the
// paper's message sizes, several rounds each, and tabulates MCT stats.
func incastMCT(cfg Config, id, base, aeolus string) []Table {
	t := Table{ID: id, Title: "7-to-1 incast MCT on the 10G testbed topology",
		Columns: []string{"scheme", "msgKB", "rounds", "p50/us", "mean/us", "p99/us", "max/us"}}
	sizes, rounds := incastMCTShape(cfg)
	res := RunScenarios(cfg, incastMCTScenarios(cfg, base, aeolus))
	i := 0
	for range []string{base, aeolus} {
		for _, size := range sizes {
			var recs []stats.FlowRecord
			var scheme string
			for round := 0; round < rounds; round++ {
				scheme = res[i].Scheme
				recs = append(recs, res[i].records...)
				i++
			}
			s := stats.Summarize(recs)
			t.Add(scheme, fmt.Sprint(size/1000), fmt.Sprint(rounds),
				stats.FormatDur(s.P50), stats.FormatDur(s.Mean),
				stats.FormatDur(s.P99), stats.FormatDur(s.Max))
		}
	}
	return []Table{t}
}

// Fig9 reproduces Figure 9: FCT of 0-100KB flows under ExpressPass with and
// without Aeolus across the four workloads, on the oversubscribed fat-tree
// at 40% core load.
func Fig9(cfg Config) []Table {
	t := Table{ID: "fig9", Title: "ExpressPass ± Aeolus, 0-100KB flows (fat-tree, 40% core)",
		Columns: fctCols}
	fctSweep(cfg, &t, workload.All, []string{"xpass", "xpass+aeolus"}, TopoFatTree, 0.4)
	return []Table{t}
}

// Fig9Scenarios declares Fig. 9's sweep.
func Fig9Scenarios(cfg Config) []scenario.Scenario {
	return fctSweepScenarios(cfg, workload.All, []string{"xpass", "xpass+aeolus"}, TopoFatTree, 0.4)
}

// Fig10 reproduces Figure 10: average FCT of 0-100KB flows as the load
// varies from 20% to 90%, ExpressPass with and without Aeolus, across the
// four workloads.
func Fig10(cfg Config) []Table {
	loads := loadSweep(cfg.Quick)
	t := Table{ID: "fig10", Title: "Avg FCT of 0-100KB flows vs load (ExpressPass ± Aeolus)",
		Columns: []string{"workload", "load", "ExpressPass/us", "ExpressPass+Aeolus/us", "improvement"}}
	res := RunScenarios(cfg, Fig10Scenarios(cfg))
	i := 0
	for _, wl := range workload.All {
		for _, load := range loads {
			mean := [2]float64{res[i].Small.Mean.Microseconds(), res[i+1].Small.Mean.Microseconds()}
			i += 2
			impr := 0.0
			if mean[0] > 0 {
				impr = 1 - mean[1]/mean[0]
			}
			t.Add(wl.Name(), f2(load), f2(mean[0]), f2(mean[1]), f3(impr))
		}
	}
	return []Table{t}
}

// loadSweep is the load grid of the vs-load figures (Figs. 10 and 13),
// trimmed under -quick.
func loadSweep(quick bool) []float64 {
	if quick {
		return []float64{0.2, 0.5, 0.8}
	}
	return []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// Fig10Scenarios declares the (workload × load × scheme) grid of Fig. 10
// at a quarter of the configured budget — many runs; keep each lighter.
func Fig10Scenarios(cfg Config) []scenario.Scenario {
	sweep := cfg
	sweep.Budget = cfg.Budget / 4
	var scns []scenario.Scenario
	for _, wl := range workload.All {
		for _, load := range loadSweep(cfg.Quick) {
			for _, id := range []string{"xpass", "xpass+aeolus"} {
				scns = append(scns, poissonScenario(sweep, id, wl.Name(), TopoFatTree, load))
			}
		}
	}
	return scns
}

// Table4 reproduces Table 4: the trapped-vs-lost ambiguity of the
// priority-queueing alternative. ExpressPass+Aeolus against ExpressPass
// with two shared-buffer priority queues recovering only by RTO (10 ms and
// 20 µs), on Cache Follower over the 100G fat-tree; maximum FCT and
// transfer efficiency.
func Table4(cfg Config) []Table {
	t := Table{ID: "table4", Title: "Aeolus vs priority queueing: ambiguity (Cache Follower, fat-tree)",
		Columns: []string{"scheme", "maxFCT/us", "efficiency"}}
	for _, r := range RunScenarios(cfg, Table4Scenarios(cfg)) {
		t.Add(r.Scheme, stats.FormatDur(r.All.Max), f2(r.Efficiency))
	}
	return []Table{t}
}

// Table4Scenarios declares Aeolus against the two RTO-only priority-queue
// alternatives on Cache Follower over the fat-tree.
func Table4Scenarios(cfg Config) []scenario.Scenario {
	wl := workload.CacheFollower.Name()
	aeolus := poissonScenario(cfg, "xpass+aeolus", wl, TopoFatTree, 0.4)
	prioSlow := poissonScenario(cfg, "xpass+prio", wl, TopoFatTree, 0.4)
	prioSlow.RTO = 10 * sim.Millisecond
	prioFast := poissonScenario(cfg, "xpass+prio", wl, TopoFatTree, 0.4)
	prioFast.RTO = 20 * sim.Microsecond
	return []scenario.Scenario{aeolus, prioSlow, prioFast}
}

// Table5 reproduces Table 5: the shared-buffer starvation of priority
// queueing. A 20-to-1 incast of 400 KB messages into one 100G port with a
// shared 200KB buffer; Aeolus selective dropping against two priority
// queues; average and maximum FCT.
func Table5(cfg Config) []Table {
	t := Table{ID: "table5", Title: "Aeolus vs priority queueing: 20-to-1 incast, 400KB each",
		Columns: []string{"scheme", "avgFCT/us", "maxFCT/us"}}
	for _, r := range RunScenarios(cfg, Table5Scenarios(cfg)) {
		t.Add(r.Scheme, stats.FormatDur(r.All.Mean), stats.FormatDur(r.All.Max))
	}
	return []Table{t}
}

// Table5Scenarios declares the shared-buffer 20-to-1 incast, Aeolus against
// the 10 ms RTO-only priority-queue alternative.
func Table5Scenarios(cfg Config) []scenario.Scenario {
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
