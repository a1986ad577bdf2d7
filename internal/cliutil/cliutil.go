// Package cliutil holds the flag-loading and validation plumbing shared by
// the simulator CLIs (cmd/aeolussim, cmd/aeolusbench, cmd/aeolusscale): the
// timeline, workload, topology and scenario flag values all parse the same
// way everywhere, and a bad value always means "print the error and exit 2"
// — the flag-mistake status — not a panic mid-run.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Die reports a flag-level error and exits with the usage status.
func Die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// StartProfiles starts the -cpuprofile/-memprofile pair shared by the
// simulator CLIs and returns the stop function callers must defer (and also
// invoke explicitly before os.Exit, which skips defers): it stops the CPU
// profile and writes the allocation profile after a settling GC, so `go tool
// pprof` shows live retained state rather than a garbage snapshot. Empty
// paths are no-ops; the stop function is idempotent.
func StartProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			Die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Die(fmt.Errorf("cliutil: start CPU profile: %w", err))
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			Die(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			Die(fmt.Errorf("cliutil: write heap profile: %w", err))
		}
	}
}

// Timeline loads the -impair/-impair-file pair (inline ';'-separated steps
// and/or a text or JSON file), nil when both are empty.
func Timeline(inline, file string) *netem.Timeline {
	tl, err := netem.LoadTimeline(inline, file)
	if err != nil {
		Die(err)
	}
	return tl
}

// Workload resolves a -workload value — a built-in name or a CDF file path —
// with "" meaning no Poisson workload.
func Workload(name string) *workload.CDF {
	if name == "" {
		return nil
	}
	wl, err := workload.Resolve(name)
	if err != nil {
		Die(err)
	}
	return wl
}

// Topo validates a -topo value against the catalogue and the clos: grammar.
func Topo(name string) {
	if _, err := experiments.ResolveTopo(name); err != nil {
		Die(err)
	}
}

// Catalogues handles the -list-schemes/-list-topos flags, reporting whether
// it printed (and the caller should exit).
func Catalogues(schemes, topos bool) bool {
	if schemes {
		fmt.Println(experiments.SchemeCatalog())
	}
	if topos {
		fmt.Println(experiments.TopoCatalog())
	}
	return schemes || topos
}

// LoadScenario reads a scenario file (JSON or canonical text) and runs the
// full semantic validation — topology, scheme and options, traffic,
// impairment targets — so every error a flag-driven run would hit up front
// is reported here too.
func LoadScenario(path string) *scenario.Scenario {
	sc, err := scenario.Load(path)
	if err != nil {
		Die(err)
	}
	if err := experiments.CheckScenario(sc); err != nil {
		Die(err)
	}
	return sc
}
