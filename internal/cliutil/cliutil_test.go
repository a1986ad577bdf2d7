package cliutil

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/experiments"
)

func TestTimelineLoading(t *testing.T) {
	if tl := Timeline("", ""); tl != nil {
		t.Fatalf("empty flags produced timeline %+v", tl)
	}
	tl := Timeline("0s * loss rate=0.5; 1ms * restore", "")
	if tl == nil || len(tl.Steps) != 2 {
		t.Fatalf("inline timeline parsed to %+v, want 2 steps", tl)
	}
	path := filepath.Join(t.TempDir(), "chaos.tl")
	if err := os.WriteFile(path, []byte("2ms * ge p=0.01 r=0.2 good=0 bad=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl = Timeline("", path)
	if tl == nil || len(tl.Steps) != 1 || tl.Steps[0].Action != "ge" {
		t.Fatalf("file timeline parsed to %+v, want one ge step", tl)
	}
}

func TestWorkloadResolution(t *testing.T) {
	if wl := Workload(""); wl != nil {
		t.Fatal("empty -workload resolved to a CDF")
	}
	if wl := Workload("WebServer"); wl == nil {
		t.Fatal("built-in WebServer did not resolve")
	}
}

func TestTopoAcceptsCatalogueAndClosGrammar(t *testing.T) {
	// Topo only Dies on bad input; surviving these calls is the assertion.
	Topo("leafspine")
	Topo("micro")
}

func TestCataloguesReportsPrinted(t *testing.T) {
	if Catalogues(false, false) {
		t.Error("Catalogues(false, false) claims it printed")
	}
	// Silence the listing itself; only the return value is under test.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	schemes := Catalogues(true, false)
	topos := Catalogues(false, true)
	os.Stdout = old
	null.Close()
	if !schemes || !topos {
		t.Error("Catalogues did not report printing a requested listing")
	}
}

func TestLoadScenarioRoundTrip(t *testing.T) {
	sc := experiments.GoldenScenario("xpass")
	path := filepath.Join(t.TempDir(), "golden.scn")
	if err := os.WriteFile(path, []byte(sc.Text()), 0o644); err != nil {
		t.Fatal(err)
	}
	got := LoadScenario(path)
	if got.Digest() != sc.Digest() {
		t.Fatalf("loaded scenario digest %s, want %s", got.Digest(), sc.Digest())
	}
}

// TestDieExitPaths re-executes the test binary so every Die-calling error
// path can be observed from outside: each must exit with the flag-mistake
// status 2 and print a diagnostic mentioning the offending value.
func TestDieExitPaths(t *testing.T) {
	if mode := os.Getenv("CLIUTIL_DIE_HELPER"); mode != "" {
		switch mode {
		case "die":
			Die(errors.New("boom"))
		case "timeline":
			Timeline("0s * explode", "")
		case "timeline-both":
			Timeline("0s * fail", "/also/a/file")
		case "workload":
			Workload("no-such-workload")
		case "topo":
			Topo("no-such-topo")
		case "scenario":
			LoadScenario(filepath.Join(t.TempDir(), "missing.scn"))
		}
		t.Fatalf("helper mode %q returned instead of exiting", mode)
	}
	for _, tc := range []struct {
		mode, wantMsg string
	}{
		{"die", "boom"},
		{"timeline", "explode"},
		{"timeline-both", "not both"},
		{"workload", "no-such-workload"},
		{"topo", "no-such-topo"},
		{"scenario", "missing.scn"},
	} {
		tc := tc
		t.Run(tc.mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=TestDieExitPaths")
			cmd.Env = append(os.Environ(), "CLIUTIL_DIE_HELPER="+tc.mode)
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("helper %q exited %v, want status 2 (output: %s)", tc.mode, err, out)
			}
			if !strings.Contains(string(out), tc.wantMsg) {
				t.Errorf("helper %q output %q does not mention %q", tc.mode, out, tc.wantMsg)
			}
		})
	}
}
