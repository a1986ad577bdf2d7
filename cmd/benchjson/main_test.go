package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute the test binary as benchjson: with
// BENCHJSON_HELPER_ARGS set (newline-separated), the process runs main on
// those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BENCHJSON_HELPER_ARGS"); ok {
		os.Args = append([]string{"benchjson"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchjson runs the command in a child process on the given stdin and
// returns its stderr and exit status.
func benchjson(t *testing.T, stdin string, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BENCHJSON_HELPER_ARGS="+strings.Join(args, "\n"))
	cmd.Stdin = strings.NewReader(stdin)
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return errOut.String(), code
}

// TestDamagedLedgerLeftAlone checks that only a missing ledger starts a
// fresh one: a ledger that does not parse makes benchjson exit 1 and stays
// byte for byte as it was, so its frozen baseline is never re-seeded from
// the current run.
func TestDamagedLedgerLeftAlone(t *testing.T) {
	const run = "BenchmarkPortPath-8   1000   179.5 ns/op   11 B/op   0 allocs/op\n"
	dir := t.TempDir()

	damaged := filepath.Join(dir, "damaged.json")
	body := []byte(`{"baseline": {"PortPath": {"ns_per_op": 90`)
	if err := os.WriteFile(damaged, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if stderr, code := benchjson(t, run, "-o", damaged); code != 1 {
		t.Errorf("damaged ledger: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if got, err := os.ReadFile(damaged); err != nil || !bytes.Equal(got, body) {
		t.Errorf("damaged ledger rewritten: %q (%v)", got, err)
	}

	fresh := filepath.Join(dir, "fresh.json")
	if stderr, code := benchjson(t, run, "-o", fresh); code != 0 {
		t.Fatalf("missing ledger: exit %d, want 0 (stderr: %s)", code, stderr)
	}
	buf, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var led Ledger
	if err := json.Unmarshal(buf, &led); err != nil {
		t.Fatal(err)
	}
	if led.Current["PortPath"].NsPerOp != 179.5 || led.Baseline["PortPath"].NsPerOp != 179.5 {
		t.Errorf("fresh ledger %+v: want the run as both current and baseline", led)
	}
}

// TestFoldRepeatedRuns checks the -count fold: the five lines of one
// benchmark become one row holding their medians, the quartiles of ns/op
// (as Python's statistics.quantiles(n=4) gives them) and the sample count;
// a benchmark run once is its own median and quartiles; and the ledger's
// note and baseline section are left as they were.
func TestFoldRepeatedRuns(t *testing.T) {
	const run = `goos: linux
BenchmarkPortPath-2   20000   120 ns/op   0 B/op   0 allocs/op
BenchmarkPortPath-2   20000   100 ns/op   0 B/op   0 allocs/op
BenchmarkPortPath-2   20000   187 ns/op   16 B/op   1 allocs/op
BenchmarkPortPath-2   20000   110 ns/op   0 B/op   0 allocs/op
BenchmarkPortPath-2   20000   130 ns/op   0 B/op   0 allocs/op
BenchmarkFabricForwarding/clos32-2   20000   900 ns/op   0 B/op   0 allocs/op   1.5e+06 packets/sec
PASS
`
	path := filepath.Join(t.TempDir(), "ledger.json")
	const committed = `{"note": "frozen", "baseline": {"PortPath": {"ns_per_op": 90, "bytes_per_op": 640, "allocs_per_op": 17}}, "current": {}}`
	if err := os.WriteFile(path, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	if stderr, code := benchjson(t, run, "-o", path); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got, want Ledger
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(committed), &want); err != nil {
		t.Fatal(err)
	}
	if got.Note != want.Note || !reflect.DeepEqual(got.Baseline, want.Baseline) {
		t.Errorf("note and baseline rewritten: %q %+v, want %q %+v", got.Note, got.Baseline, want.Note, want.Baseline)
	}
	wantCurrent := map[string]Result{
		"PortPath": {NsPerOp: 120, NsQ1: 105, NsQ3: 158.5, Samples: 5},
		"FabricForwarding/clos32": {NsPerOp: 900, NsQ1: 900, NsQ3: 900, Samples: 1,
			Metrics: map[string]float64{"packets/sec": 1.5e6}},
	}
	if !reflect.DeepEqual(got.Current, wantCurrent) {
		t.Errorf("current = %+v, want %+v", got.Current, wantCurrent)
	}
}
