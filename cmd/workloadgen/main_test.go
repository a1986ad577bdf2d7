package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute the test binary as workloadgen: with
// WORKLOADGEN_HELPER_ARGS set (newline-separated, so an argument may hold
// spaces), the process runs main on those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("WORKLOADGEN_HELPER_ARGS"); ok {
		os.Args = append([]string{"workloadgen"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workloadgen runs the command in a child process and returns its stdout,
// its stderr and its exit status.
func workloadgen(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "WORKLOADGEN_HELPER_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// TestOutputDigests pins the SHA-256 of a sampled trace and of the
// distribution statistics.
func TestOutputDigests(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "WebSearch", "-flows", "50", "-seed", "3"},
			"00ffc57eda3d85320e4fde821e3c511b8c4ea8f63387cf0a897e387bcc3c139c"},
		{[]string{"-stats"},
			"5dff8d19b0bf832c06ec94be2479d842052b3d0c54608389c8fa3e42ed01afcd"},
	} {
		stdout, stderr, code := workloadgen(t, tc.args...)
		if code != 0 {
			t.Fatalf("workloadgen %q exited %d:\n%s", tc.args, code, stderr)
		}
		sum := sha256.Sum256([]byte(stdout))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("workloadgen %q output digest %s, want %s", tc.args, got, tc.want)
		}
	}
}

// TestFlagValidation checks that a flag value the trace generator cannot
// serve exits with the flag-mistake status 2, naming the flag, before any
// trace is sampled — never a panic or a trace whose every start is zero.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-hosts", "1"}, "-hosts 1:"},
		{[]string{"-hosts", "0"}, "-hosts 0:"},
		{[]string{"-flows", "-5"}, "-flows -5:"},
		{[]string{"-load", "0"}, "-load 0:"},
		{[]string{"-load", "NaN"}, "-load NaN:"},
		{[]string{"-gbps", "0"}, "-gbps 0:"},
		// Arrivals the simulation clock cannot place: gaps past int64
		// picoseconds, gaps under one picosecond, and a rate that overflows.
		{[]string{"-flows", "3", "-load", "1e-300"}, "-load 1e-300"},
		{[]string{"-flows", "3", "-load", "1e300"}, "-load 1e+300"},
		{[]string{"-flows", "3", "-gbps", "9223372036"}, "-gbps 9223372036:"},
		{[]string{"-flows", "3", "-gbps", "20000000000"}, "-gbps 20000000000:"},
	} {
		stdout, stderr, code := workloadgen(t, tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("workloadgen %q exited %d with stdout %q, want status 2 and no trace", tc.args, code, stdout)
		}
		if strings.Contains(stderr, "panic") || !strings.Contains(stderr, tc.want) {
			t.Errorf("workloadgen %q stderr %q does not name the flag as %q", tc.args, stderr, tc.want)
		}
	}
}
