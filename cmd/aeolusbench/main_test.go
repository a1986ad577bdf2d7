package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute the test binary as aeolusbench: with
// AEOLUSBENCH_HELPER_ARGS set (newline-separated, so an argument may hold
// spaces), the process runs main on those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("AEOLUSBENCH_HELPER_ARGS"); ok {
		os.Args = append([]string{"aeolusbench"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aeolusbench runs the command in a child process and returns its combined
// stdout and stderr and its exit status.
func aeolusbench(t *testing.T, args ...string) (out string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "AEOLUSBENCH_HELPER_ARGS="+strings.Join(args, "\n"))
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return buf.String(), code
}

// TestFlagValidation checks that a flag value one of the selected
// experiments' declared runs cannot take exits with the flag-mistake status
// 2, naming the experiment and the problem, before any run starts — never a
// panic mid-sweep. -exp all validates every experiment, and -scenarios
// validates before it prints.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"budget-zero", []string{"-exp", "fig3", "-quick", "-budget", "0"},
			"fig3: scenario: workload needs flows or budget"},
		{"budget-negative-all", []string{"-exp", "all", "-budget", "-1"},
			"fig1: scenario: negative flow budget"},
		{"impair-no-port", []string{"-exp", "fig9", "-quick", "-impair", "0s sw0->* loss rate=0.1"},
			`fig9: experiments: timeline step 0: target "sw0->*" matches no port`},
		{"impair-no-port-microbenchmark", []string{"-exp", "fig15", "-quick", "-impair", "0s sw9->* loss rate=0.1"},
			`fig15: experiments: timeline step 0: target "sw9->*" matches no port`},
		{"scenarios-budget-zero", []string{"-scenarios", "fig9", "-budget", "0"},
			"fig9: scenario: workload needs flows or budget"},
		{"impair-shards-split", []string{"-exp", "fig9", "-quick", "-shards", "2", "-impair", "0s sw0->* loss rate=0.01"},
			"fig9: experiments: impairment timelines need one shard, but topology fattree splits into 2"},
		{"impair-shards-split-all", []string{"-exp", "all", "-quick", "-shards", "2", "-impair", "0s sw0->* loss rate=0.01"},
			"fig1: experiments: impairment timelines need one shard"},
		{"shards-zero", []string{"-exp", "fig8", "-quick", "-budget", "1", "-shards", "0"}, "-shards 0:"},
		{"shards-negative", []string{"-exp", "fig8", "-quick", "-budget", "1", "-shards", "-2"}, "-shards -2:"},
		{"parallel-zero", []string{"-exp", "fig8", "-quick", "-budget", "1", "-parallel", "0"}, "-parallel 0:"},
		{"parallel-negative", []string{"-exp", "fig8", "-quick", "-budget", "1", "-parallel", "-1"}, "-parallel -1:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, code := aeolusbench(t, tc.args...)
			if code != 2 {
				t.Fatalf("aeolusbench %q exited %d, want status 2 (output: %s)", tc.args, code, out)
			}
			if strings.Contains(out, "panic") {
				t.Fatalf("aeolusbench %q panicked:\n%s", tc.args, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("aeolusbench %q output %q does not mention %q", tc.args, out, tc.want)
			}
		})
	}
}

// TestImpairShardsUnsplit runs an impairment timeline with -shards 2 on an
// experiment whose fabric never splits: fig8's testbed is one switch, so the
// request falls back to one shard and the tables are those of -shards 1.
// Only an experiment whose fabric does split is rejected (TestFlagValidation).
func TestImpairShardsUnsplit(t *testing.T) {
	tables := func(shards string) string {
		out, code := aeolusbench(t, "-exp", "fig8", "-quick", "-budget", "1", "-shards", shards,
			"-impair", "0s sw0->* loss rate=0.01")
		if code != 0 {
			t.Fatalf("aeolusbench -exp fig8 -shards %s -impair exited %d:\n%s", shards, code, out)
		}
		// Drop the "[fig8 done in …]" timing line.
		out, _, _ = strings.Cut(out, "[fig8 done in")
		return out
	}
	one, two := tables("1"), tables("2")
	if !strings.Contains(two, "## fig8") {
		t.Fatalf("no fig8 table in the output:\n%s", two)
	}
	if one != two {
		t.Errorf("-shards 2 changed fig8's tables on its one-switch fabric:\n%s\nwant\n%s", two, one)
	}
}
