package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute the test binary as aeolussim: with
// AEOLUSSIM_HELPER_ARGS set (newline-separated, so an argument may hold
// spaces), the process runs main on those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("AEOLUSSIM_HELPER_ARGS"); ok {
		os.Args = append([]string{"aeolussim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aeolussim runs the command in a child process and returns its stdout, its
// stderr and its exit status.
func aeolussim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "AEOLUSSIM_HELPER_ARGS="+strings.Join(args, "\n"))
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

// mustRun is aeolussim for a run that must succeed.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := aeolussim(t, args...)
	if code != 0 {
		t.Fatalf("aeolussim %q exited %d:\n%s", args, code, stderr)
	}
	return stdout, stderr
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// The flag sets the CLI pins cover. explicit sets every scheme- and
// fabric-level knob; budget derives its flow count, so its scenario records
// the budget and clamps; cdfFile reads a CDF file, which the dump inlines.
var (
	incast   = []string{"-topo", "single", "-scheme", "xpass+aeolus", "-incast", "7", "-msg", "40000"}
	budget   = []string{"-topo", "leafspine", "-scheme", "homa+aeolus", "-workload", "WebSearch", "-load", "0.5", "-budget", "4"}
	explicit = []string{"-topo", "single", "-scheme", "homa+aeolus", "-workload", "WebServer", "-load", "0.3",
		"-flows", "30", "-opt", "spray=false", "-rto", "40", "-threshold", "6144", "-buffer", "100000", "-deadline", "50"}
	impaired = []string{"-topo", "micro", "-scheme", "ndp+aeolus", "-incast", "16", "-msg", "20000",
		"-impair", "0s sw0->* loss rate=0.01; 50us sw0->h0 fail; 150us sw0->h0 restore"}
	cdfFile = []string{"-topo", "single", "-scheme", "xpass", "-workload", "testdata/small.cdf", "-load", "0.4", "-flows", "20"}
)

// with returns args followed by more, leaving args untouched.
func with(args []string, more ...string) []string {
	return append(append([]string(nil), args...), more...)
}

// TestDumpScenarioDigests pins the SHA-256 of the scenario each flag set
// resolves to, in both interchange forms: the flags build the scenario, and
// a change to what they record moves these digests.
func TestDumpScenarioDigests(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		json, text string
	}{
		{"incast", incast,
			"cb5fe64930e3c4cf81276f944453feb3a7555854f52889a5a2cfdec32b6afc03",
			"1b08a3ebf97634c5e2f6237d077944620068731a1a7f928b14e1a43950f71961"},
		{"budget", budget,
			"13d7acc3d060caa7ac14b66e1af2b6e452b432d623d0168ecdac5cf8a9b69a4c",
			"b4b7dbfd98f18119ab61c0b65c9369f58c7c33c445526281071734758b1d419e"},
		{"explicit", explicit,
			"fbcf6de33ac592d1244073862f522b483bc5a5402154af93cfd1921525bd644f",
			"160d22874226255f550e274c9a7f905cdb83ecc8b264855414efad3c6c791ab4"},
		{"impaired", impaired,
			"de919d13b3cab709dcd7b7282848b54bb97ae5c16961e58a4570d5e773536a5a",
			"67e3033bf137ac46a4bb557ad0db971f8dfaf399ccb3731edf2843417a79c2a9"},
		{"cdf-file", cdfFile,
			"a6433efc587668c7cb176869bd80a621fd0a484188eb33b74835ce8b2259c3ba",
			"fc6bbaf86a9c995237512b956444653ead529cf50f23b760c923c7e1fcce4f53"},
	} {
		for form, want := range map[string]string{"json": tc.json, "text": tc.text} {
			out, _ := mustRun(t, with(tc.args, "-dump-scenario", form)...)
			if got := sha(out); got != want {
				t.Errorf("%s -dump-scenario %s: digest %s, want %s:\n%s", tc.name, form, got, want, out)
			}
		}
	}
}

// TestScenarioReplay pins a flag-driven run's summary and replays its dump
// through -scenario: the file must reproduce the run byte for byte.
func TestScenarioReplay(t *testing.T) {
	const want = "3b5cef4657962db2a2f73115edb2040827ae57b0b0106ad5d8c0063cdb3af1ac"
	out, _ := mustRun(t, explicit...)
	if got := sha(out); got != want {
		t.Errorf("flag run: digest %s, want %s:\n%s", got, want, out)
	}
	dump, _ := mustRun(t, with(explicit, "-dump-scenario", "json")...)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	if replay, _ := mustRun(t, "-scenario", path); replay != out {
		t.Errorf("-scenario replay printed\n%s\nwant the flag run's\n%s", replay, out)
	}
}

// TestSeedRuns pins -runs: three copies over consecutive scheme and incast
// seeds print the same per-run lines and summary at every -parallel. The
// incast spans leaves, so which hosts the incast seed picks shows in the
// pin; on one switch every choice of senders is equivalent.
func TestSeedRuns(t *testing.T) {
	const want = "9d1ed443f49fd906f3391cad1fc6e43ac66d281f6e9554bc5eea78f42b3fc624"
	runs := []string{"-topo", "leafspine", "-scheme", "xpass+aeolus", "-incast", "7", "-msg", "40000", "-runs", "3"}
	par, _ := mustRun(t, with(runs, "-parallel", "2")...)
	if got := sha(par); got != want {
		t.Errorf("-runs 3 -parallel 2: digest %s, want %s:\n%s", got, want, par)
	}
	if ser, _ := mustRun(t, with(runs, "-parallel", "1")...); ser != par {
		t.Errorf("-runs 3 differs between -parallel 1 and 2:\n%s\nvs\n%s", ser, par)
	}
}

// TestTrace pins -trace: only the traced flow's port and host events reach
// stderr, and the summary on stdout is the untraced run's.
func TestTrace(t *testing.T) {
	const (
		wantOut   = "53074b8e3c377cbdd3715e288e3c0df4a8b47508f14f8573d63f41b6016ec056"
		wantTrace = "be87492e6d0c3a1354c67d8ac25a20cb9092f1bac01a8f081c9d2b0b124c8a0f"
	)
	untraced, _ := mustRun(t, incast...)
	if got := sha(untraced); got != wantOut {
		t.Errorf("untraced run: digest %s, want %s:\n%s", got, wantOut, untraced)
	}
	out, trace := mustRun(t, with(incast, "-trace", "1000001")...)
	if out != untraced {
		t.Errorf("-trace changed stdout:\n%s\nwant\n%s", out, untraced)
	}
	if got := sha(trace); got != wantTrace {
		t.Errorf("trace digest %s, want %s", got, wantTrace)
	}
	lines := strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
	for _, line := range lines {
		f := strings.Fields(line)
		kind := ""
		if len(f) > 1 {
			kind = f[1]
		}
		switch {
		case kind != "ENQ" && kind != "DROP" && kind != "TRIM" && kind != "DELIVER":
			t.Errorf("trace line is not a port or host event: %q", line)
		case !strings.Contains(line, "{flow=1000001 "):
			t.Errorf("trace line is not about flow 1000001: %q", line)
		}
	}
}

// TestFlagValidation checks the flag path's up-front validation from
// outside: a flag value a scenario file would reject, traffic the fabric
// cannot serve, or a trace on a fabric that splits into shards must exit
// with the flag-mistake status 2 and name the problem — never run, and
// never panic mid-run.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name, args, want string
	}{
		{"msg-negative", "-topo single -incast 3 -msg -10", "msg size -10"},
		{"msg-zero", "-topo single -incast 3 -msg 0", "msg size 0"},
		{"load-negative", "-topo single -workload WebSearch -load -1", "core load -1"},
		{"load-zero", "-topo single -workload WebSearch -load 0", "core load 0"},
		{"flows-negative", "-topo single -workload WebSearch -flows -5", "flows=-5"},
		{"buffer-negative", "-topo single -incast 3 -buffer -5", "buffer -5"},
		{"buffer-sub-frame", "-topo single -incast 3 -buffer 100", "buffer 100 B cannot hold one full 1538 B frame"},
		{"buffer-sub-jumbo", "-topo single -incast 3 -scheme ndp+aeolus -buffer 5000", "buffer 5000 B cannot hold one full 9000 B frame"},
		{"deadline-negative", "-topo single -incast 3 -deadline -1", "deadline -1ms"},
		{"one-host-incast", "-topo clos:1,hosts=1 -incast 1", "has 1 host"},
		{"clos-repeated", "-topo clos:1,hosts=4,hosts=8 -incast 3", `repeated parameter "hosts"`},
		{"one-host-workload", "-topo clos:1,hosts=1 -workload WebSearch -flows 5", "has 1 host"},
		{"trace-shards", "-topo leafspine -scheme homa+aeolus -workload WebSearch -load 0.5 -flows 200 -shards 2 -trace 3",
			"tracing needs one shard"},
		{"load-gap-overflow", "-topo single -workload WebSearch -load 1e-300 -flows 5", "core load 1e-300"},
		{"load-gap-under-tick", "-topo single -workload WebSearch -load 1e300 -flows 3", "core load 1e+300"},
		{"load-span-overflow", "-topo single -workload WebSearch -load 1.6e-9 -flows 200", "core load 1.6e-09"},
		{"runs-zero", "-topo single -incast 3 -runs 0", "-runs 0:"},
		{"runs-negative", "-topo single -incast 3 -runs -3", "-runs -3:"},
		{"incast-negative", "-topo single -workload WebSearch -flows 5 -incast -2", "-incast -2:"},
		{"shards-negative", "-topo leafspine -scheme homa -workload WebSearch -flows 20 -shards -1", "-shards -1:"},
		{"shards-zero", "-topo single -incast 3 -shards 0", "-shards 0:"},
		{"parallel-zero", "-topo single -incast 3 -runs 2 -parallel 0", "-parallel 0:"},
		{"parallel-negative", "-topo single -incast 3 -runs 2 -parallel -3", "-parallel -3:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := aeolussim(t, strings.Fields(tc.args)...)
			out := stdout + stderr
			if code != 2 {
				t.Fatalf("aeolussim %s exited %d, want status 2 (output: %s)", tc.args, code, out)
			}
			if strings.Contains(out, "panic") {
				t.Fatalf("aeolussim %s panicked:\n%s", tc.args, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("aeolussim %s output %q does not mention %q", tc.args, out, tc.want)
			}
		})
	}
}

// TestRepeatedOptKey checks that -opt takes each key once: a second value
// for a key is a flag error (status 2), not a silent override.
func TestRepeatedOptKey(t *testing.T) {
	_, stderr, code := aeolussim(t, "-topo", "single", "-incast", "3", "-scheme", "homa",
		"-opt", "spray=true", "-opt", "spray=false")
	if code != 2 {
		t.Fatalf("repeated -opt key exited %d, want status 2:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `repeated key "spray"`) {
		t.Errorf("stderr does not name the repeated key:\n%s", stderr)
	}
}
