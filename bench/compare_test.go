package bench

import "testing"

func TestJudge(t *testing.T) {
	wall := Metric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	rate := Metric{Name: "sim_us_per_s", Unit: "us/s", Better: "higher", Bound: 0.10}
	setup := Metric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.010}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	tests := []struct {
		name string
		m    Metric
		a, b []float64
		want Verdict
	}{
		{"identical", wall, base, base, Same},
		{"within bound", wall, base, []float64{10.5, 10.6, 10.4, 10.55, 10.45}, Same},
		{"worse beyond bound", wall, base, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, Worse},
		{"better on every pair", wall, base, []float64{9.0, 9.1, 8.9, 9.05, 8.95}, Better},
		{"better median but loses a pair", wall, base, []float64{9.0, 10.2, 9.05, 9.1, 9.0}, Same},
		{"better by less than the baseline spread", wall,
			[]float64{10, 10.4, 9.6, 10.2, 9.8}, []float64{9.85, 10.25, 9.5, 10.1, 9.7}, Same},
		{"baseline spread wider than bound", wall,
			[]float64{8, 12, 10, 9, 11}, []float64{10.1, 10.2, 10, 10.1, 10}, Unresolved},
		{"change spread wider than bound", wall,
			base, []float64{8, 12, 10, 9, 11}, Unresolved},
		{"wide spread but every change run better", wall,
			[]float64{8, 12, 10, 9, 11}, []float64{7, 7.5, 6, 6.5, 7.9}, Better},
		{"wide spread and every change run worse", wall,
			[]float64{8, 12, 10, 9, 11}, []float64{13, 14, 15, 13.5, 14.5}, Unresolved},
		{"higher is better: fall beyond bound", rate,
			[]float64{500, 505, 495, 502, 498}, []float64{440, 445, 435, 442, 438}, Worse},
		{"higher is better: rise", rate,
			[]float64{500, 505, 495, 502, 498}, []float64{560, 565, 555, 562, 558}, Better},
		{"slack absorbs a small absolute rise", setup,
			[]float64{0.0010, 0.0011, 0.0010, 0.0011, 0.0010}, []float64{0.0020, 0.0021, 0.0020, 0.0021, 0.0020}, Same},
		{"rise beyond bound and slack", setup,
			[]float64{0.100, 0.101, 0.100, 0.101, 0.100}, []float64{0.140, 0.141, 0.140, 0.141, 0.140}, Worse},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Judge(tc.m, tc.a, tc.b); got != tc.want {
				t.Errorf("Judge = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	tests := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
	}
	for _, tc := range tests {
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCompareFlagsNewFailures(t *testing.T) {
	s := Summary{Median: 1, Q1: 1, Q3: 1, N: 1, Samples: []float64{1}}
	e2e := make(map[string]Summary)
	for _, m := range EndToEnd {
		e2e[m.Name] = s
	}
	a := &SetFile{Workloads: map[string]WorkloadSummary{"scale-h256": {EndToEnd: e2e, Attempted: 10}}}
	b := &SetFile{Workloads: map[string]WorkloadSummary{"scale-h256": {EndToEnd: e2e, Attempted: 10, Failed: 1}}}
	rows := Compare(a, b)
	if len(rows) != len(EndToEnd)+1 {
		t.Fatalf("got %d rows, want %d", len(rows), len(EndToEnd)+1)
	}
	for _, r := range rows {
		want := Same
		if r.Metric == "fail_frac" {
			want = Worse
		}
		if r.Verdict != want {
			t.Errorf("%s: %s, want %s", r.Metric, r.Verdict, want)
		}
	}
}
