package bench

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables checks that the root BENCHMARK.json names
// exactly the workloads and metrics this package runs and reports, with the
// same units, directions and bounds, and that every name and unit is valid.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if used[name] {
			t.Errorf("name %q used twice", name)
		}
		used[name] = true
	}

	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != Workloads[i].Name || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, Workloads[i].Name)
		}
	}

	var widest float64
	for _, m := range EndToEnd {
		widest = max(widest, m.Bound)
	}
	if len(bj.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(EndToEnd))
	}
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		want := EndToEnd[i].Metric
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound == nil || *m.Bound != want.Bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("invalid unit %q", m.Unit)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || want.Bound != widest) {
			t.Errorf("setup_s must be seconds, lower-better, with the widest bound")
		}
	}
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}

	if len(bj.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d (at most 128)", len(bj.PerLayer), len(PerLayer))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		want := PerLayer[i].Metric
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != nil {
			t.Errorf("per_layer %d: %+v, want %+v without a bound", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("invalid unit %q", m.Unit)
		}
	}
}
