package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFlagValidation re-executes the test binary as aeolussim, so the flag
// path's up-front validation can be observed from outside: a flag value a
// scenario file would reject, or traffic the fabric cannot serve, must exit
// with the flag-mistake status 2 and name the bad value — never run, and
// never panic mid-run.
func TestFlagValidation(t *testing.T) {
	if args := os.Getenv("AEOLUSSIM_HELPER_ARGS"); args != "" {
		os.Args = append([]string{"aeolussim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		name, args, want string
	}{
		{"msg-negative", "-topo single -incast 3 -msg -10", "msg size -10"},
		{"msg-zero", "-topo single -incast 3 -msg 0", "msg size 0"},
		{"load-negative", "-topo single -workload WebSearch -load -1", "core load -1"},
		{"load-zero", "-topo single -workload WebSearch -load 0", "core load 0"},
		{"flows-negative", "-topo single -workload WebSearch -flows -5", "flows=-5"},
		{"buffer-negative", "-topo single -incast 3 -buffer -5", "buffer -5"},
		{"deadline-negative", "-topo single -incast 3 -deadline -1", "deadline -1ms"},
		{"one-host-incast", "-topo clos:1,hosts=1 -incast 1", "has 1 host"},
		{"one-host-workload", "-topo clos:1,hosts=1 -workload WebSearch -flows 5", "has 1 host"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestFlagValidation$")
			cmd.Env = append(os.Environ(), "AEOLUSSIM_HELPER_ARGS="+tc.args)
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("aeolussim %s exited %v, want status 2 (output: %s)", tc.args, err, out)
			}
			if strings.Contains(string(out), "panic") {
				t.Fatalf("aeolussim %s panicked:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("aeolussim %s output %q does not mention %q", tc.args, out, tc.want)
			}
		})
	}
}
