package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// testConfig is small enough for CI but large enough for directional shapes.
func testConfig() Config {
	return Config{Budget: 24 << 20, MinFlows: 100, MaxFlows: 2000, Seed: 1, Quick: true}
}

// regenerate renders registry experiment id's tables under cfg.
func regenerate(t *testing.T, id string, cfg Config) []Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Fn(cfg)
}

func cell(t *Table, row int, col string) string {
	for i, c := range t.Columns {
		if c == col {
			return t.Rows[row][i]
		}
	}
	return ""
}

func cellF(tt *testing.T, t *Table, row int, col string) float64 {
	v, err := strconv.ParseFloat(cell(t, row, col), 64)
	if err != nil {
		tt.Fatalf("table %s row %d col %s: %v", t.ID, row, col, err)
	}
	return v
}

func TestRegistryResolves(t *testing.T) {
	if len(Registry) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(Registry))
	}
	for _, e := range Registry {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s) failed: %v", e.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID(nope) should fail")
	}
}

// TestExperimentRunsItsScenarios checks that a registry entry runs exactly
// the scenarios it declares, in one batch: every progress report counts out
// of the declared total, and there is one report per declared run.
func TestExperimentRunsItsScenarios(t *testing.T) {
	for _, id := range []string{"fig8", "fig11", "table5", "fig17", "degrade"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		want := len(e.Scenarios(cfg))
		var mu sync.Mutex
		totals := map[int]int{} // reported batch total -> reports
		cfg.Progress = func(_, total int, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			totals[total]++
		}
		e.Fn(cfg)
		if len(totals) != 1 || totals[want] != want {
			t.Errorf("%s declares %d runs; progress reports per batch total: %v", id, want, totals)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tables := fig2(testConfig())
	if len(tables) != 2 {
		t.Fatalf("fig2 returned %d tables", len(tables))
	}
	flows := tables[0]
	// The fraction of first-RTT-finishable flows must grow with link speed
	// for every workload (the paper's headline: 60-90% at 100G).
	for _, col := range []string{"WebServer", "CacheFollower", "WebSearch", "DataMining"} {
		first := cellF(t, &flows, 0, col)
		last := cellF(t, &flows, len(flows.Rows)-1, col)
		if last <= first {
			t.Errorf("fig2a %s: fraction did not grow with link speed (%v -> %v)", col, first, last)
		}
		if last < 0.55 {
			t.Errorf("fig2a %s: 100G fraction %v, paper reports 60-90%%", col, last)
		}
	}
}

func TestFig3IdealBeatsVanilla(t *testing.T) {
	cfg := testConfig()
	tables := regenerate(t, "fig3", cfg)
	tab := tables[0]
	// Rows alternate vanilla/ideal per workload; ideal must roughly halve
	// the median (paper: 1.5 RTT -> 0.5 RTT) and finish most flows in 1 RTT.
	for i := 0; i < len(tab.Rows); i += 2 {
		vMed := cellF(t, &tab, i, "p50/us")
		oMed := cellF(t, &tab, i+1, "p50/us")
		if oMed >= vMed {
			t.Errorf("row %d: ideal median %v not better than vanilla %v", i, oMed, vMed)
		}
		if frac := cellF(t, &tab, i+1, "in1RTT"); frac < 0.5 {
			t.Errorf("row %d: ideal in-1-RTT fraction %v too low", i, frac)
		}
		if frac := cellF(t, &tab, i, "in1RTT"); frac > 0.2 {
			t.Errorf("row %d: vanilla ExpressPass finished %v of small flows in 1 RTT; it should be ~0", i, frac)
		}
	}
}

func TestFig9AeolusImprovesExpressPass(t *testing.T) {
	cfg := testConfig()
	tables := regenerate(t, "fig9", cfg)
	tab := tables[0]
	for i := 0; i < len(tab.Rows); i += 2 {
		vanilla := cellF(t, &tab, i, "mean/us")
		aeolus := cellF(t, &tab, i+1, "mean/us")
		if aeolus >= vanilla {
			t.Errorf("%s: Aeolus mean %v not better than vanilla %v",
				cell(&tab, i, "workload"), aeolus, vanilla)
		}
	}
}

func TestTable5PriorityQueueingMuchWorse(t *testing.T) {
	tables := regenerate(t, "table5", testConfig())
	tab := tables[0]
	aeolusMax := cellF(t, &tab, 0, "maxFCT/us")
	prioMax := cellF(t, &tab, 1, "maxFCT/us")
	// Paper: priority queueing ~10x worse because scheduled packets are
	// starved of shared buffer and recovered only after a 10 ms RTO.
	if prioMax < 3*aeolusMax {
		t.Errorf("priority queueing max FCT %v not clearly worse than Aeolus %v", prioMax, aeolusMax)
	}
	if prioMax < 10_000 {
		t.Errorf("priority queueing max FCT %v below RTO scale; no scheduled drop happened", prioMax)
	}
}

func TestFig15QueueTracksThreshold(t *testing.T) {
	tables := fig15(testConfig())
	tab := tables[0]
	prev := -1.0
	for i := range tab.Rows {
		maxQ := cellF(t, &tab, i, "maxQueue/KB")
		th := cellF(t, &tab, i, "threshold/KB")
		if maxQ <= prev {
			t.Errorf("max queue not increasing with threshold at row %d", i)
		}
		// The queue is bounded by the threshold plus in-flight slack.
		if maxQ > th+16 {
			t.Errorf("threshold %v KB: max queue %v KB far above threshold", th, maxQ)
		}
		prev = maxQ
	}
}

func TestFig16HighThresholdSaturates(t *testing.T) {
	tables := fig16(testConfig())
	tab := tables[0]
	for i := range tab.Rows {
		if u := cellF(t, &tab, i, "th=12KB"); u < 0.9 {
			t.Errorf("fanin %s: 12KB threshold utilization %v < 0.9",
				cell(&tab, i, "fanin"), u)
		}
	}
}

func TestFig17AeolusNeverWorseMuch(t *testing.T) {
	tables := regenerate(t, "fig17", testConfig())
	avg := tables[0]
	// Find paired rows: scheme and scheme+Aeolus.
	rows := map[string]int{}
	for i := range avg.Rows {
		rows[avg.Rows[i][0]] = i
	}
	pairs := [][2]string{
		{"ExpressPass", "ExpressPass+Aeolus"},
		{"Homa", "Homa+Aeolus"},
		{"NDP", "NDP+Aeolus"},
	}
	for _, pr := range pairs {
		b, ok1 := rows[pr[0]]
		a, ok2 := rows[pr[1]]
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for %v", pr)
		}
		for c := 1; c < len(avg.Columns); c++ {
			base, _ := strconv.ParseFloat(avg.Rows[b][c], 64)
			plus, _ := strconv.ParseFloat(avg.Rows[a][c], 64)
			if plus > base*1.5 {
				t.Errorf("%s %s: Aeolus slowdown %v vs base %v — should not degrade heavily",
					pr[1], avg.Columns[c], plus, base)
			}
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := testConfig()
	spec := RunSpec{
		Scheme: SchemeSpec{ID: "xpass+aeolus", Seed: 7},
		Topo:   TopoSingleSwitch,
		Incast: &workload.IncastConfig{Fanin: 7, Receiver: 0, MsgSize: 40_000, Seed: 7,
			StartAt: sim.Time(10 * sim.Microsecond)},
	}
	a := Run(cfg, spec)
	b := Run(cfg, spec)
	if a.All.Mean != b.All.Mean || a.All.Max != b.All.Max || a.Completed != b.Completed {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a.All, b.All)
	}
}

func TestMakeSchemeUnknownErrors(t *testing.T) {
	if _, err := MakeScheme(SchemeSpec{ID: "bogus"}); err == nil {
		t.Fatal("unknown scheme did not error")
	} else if !strings.Contains(err.Error(), "xpass+aeolus") {
		t.Fatalf("error does not carry the catalogue: %v", err)
	}
}

func TestAllSchemesRunIncast(t *testing.T) {
	// Every scheme in the catalogue must complete a small incast.
	for _, e := range Schemes() {
		id := e.ID
		spec := SchemeSpec{ID: id, Workload: workload.WebServer, Seed: 3}
		if id == "xpass+prio" {
			spec.RTO = 10 * sim.Millisecond
		}
		r := Run(testConfig(), RunSpec{
			Scheme: spec, Topo: TopoSingleSwitch,
			Incast: &workload.IncastConfig{Fanin: 5, Receiver: 0, MsgSize: 50_000,
				Seed: 3, StartAt: sim.Time(10 * sim.Microsecond)},
			Deadline: sim.Duration(sim.Second),
		})
		if r.Completed != r.Total {
			t.Errorf("%s: completed %d of %d", id, r.Completed, r.Total)
		}
		if !strings.Contains(r.Scheme, "") {
			t.Errorf("%s: empty display name", id)
		}
	}
}

func TestTablePanicsOnBadRow(t *testing.T) {
	tab := Table{ID: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tab.Add("only-one")
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "x", Title: "T", Columns: []string{"a", "b"}}
	tab.Add("1", "2")
	var sb, sc strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), "## x — T") || !strings.Contains(sb.String(), "1") {
		t.Fatalf("Fprint output: %q", sb.String())
	}
	tab.CSV(&sc)
	if sc.String() != "a,b\n1,2\n" {
		t.Fatalf("CSV output: %q", sc.String())
	}
}
