package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary serve as the reps' child process, the way
// aeolusperf re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(ChildMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func tinyRunner() *Runner { return &Runner{Exe: os.Args[0], Tiny: true} }

// TestSmokeEveryWorkload runs a one-rep set of every workload at its tiny
// size through the real child processes and checks.
func TestSmokeEveryWorkload(t *testing.T) {
	results, err := tinyRunner().Set(context.Background(), 1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		name := res.Workload.Name
		if res.Attempted() == 0 || res.Failed() != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", name, res.Failed(), res.Attempted(), res.Problems())
		}
		if res.Workload.auditCheck() && (res.Check == nil || !res.Check.Audit) {
			t.Errorf("%s: no audited check rep", name)
		}
		for metric, s := range res.EndToEnd() {
			if s.N != 1 || !(s.Median > 0) {
				t.Errorf("%s %s: %+v, want one positive sample", name, metric, s)
			}
		}
		if got := res.PerLayer(); len(got) != len(PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(got), len(PerLayer))
		}
	}
}

// TestSmokeTraced measures one workload with tracing on and checks the
// traced output: the result line carries every per-layer metric, the spans
// nest workload → run → setup/simulate, and the profile was folded.
func TestSmokeTraced(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool pprof unavailable:", err)
	}
	dir := t.TempDir()
	w, err := WorkloadByName("scale-h256")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinyRunner().Measure(context.Background(), w, 2, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 || len(res.Traced) < minTraced || res.Check == nil || res.Prof == nil {
		t.Fatalf("failed %d, traced %d, check %v, profile %v", res.Failed(), len(res.Traced), res.Check, res.Prof)
	}
	line, err := res.ResultLine(true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(PerLayer) {
		t.Errorf("correct %v with %d metrics, want %d", out.Correct, len(out.Metrics), len(PerLayer))
	}

	f, err := os.Open(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]Span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		byID[s.ID] = s
	}
	parentOf := map[string]string{"workload": "", "run": "workload", "setup": "run", "simulate": "run",
		"netem.build": "", "workload.generate": "", "scenario.lower": "", "stats.summarize": ""}
	seen := map[string]bool{}
	for _, s := range byID {
		want, ok := parentOf[s.Name]
		if !ok {
			t.Errorf("unexpected span %q", s.Name)
			continue
		}
		if got := byID[s.Parent].Name; got != want {
			t.Errorf("span %q has parent %q, want %q", s.Name, got, want)
		}
		seen[s.Name] = true
	}
	if len(seen) != len(parentOf) {
		t.Errorf("spans seen %v, want all of %v", seen, parentOf)
	}
	for _, name := range []string{"cpu.pprof", "layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
}
