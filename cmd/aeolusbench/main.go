// Command aeolusbench regenerates the tables and figures of the Aeolus
// paper's evaluation. Each experiment builds the paper's topology, workload
// and schemes on the packet-level simulator and prints the rows the paper
// plots.
//
// Usage:
//
//	aeolusbench -list
//	aeolusbench -list-schemes
//	aeolusbench -exp fig9
//	aeolusbench -exp all -budget 512 -csv
//	aeolusbench -exp all -quick -parallel 8
//	aeolusbench -exp degrade -json > results/degradation.json
//	aeolusbench -digest -scheme homa+aeolus
//	aeolusbench -scenarios fig9 -quick
//
// -digest prints the golden-trace behavior digest for one scheme (or, with
// no -scheme, for the whole catalogue) — the regeneration path for the
// pinned table in internal/experiments/golden_test.go — with the digest of
// the scenario declaring each golden run alongside. No other mode takes a
// -scheme: it exits 2.
//
// -scenarios prints the scenario values an experiment's runs resolve to as a
// JSON array; each element is a self-contained scenario file runnable with
// aeolussim -scenario (see internal/scenario).
//
// Every run the selected experiments make is validated under the flags
// before anything runs or prints: a flag value one of those runs cannot take
// (a zero or negative -budget, an -impair target missing from an
// experiment's fabric, an -impair timeline on a fabric that -shards splits)
// exits 2 naming the experiment and the problem. A -shards below 1 exits 2
// too.
//
// The -budget flag (in MiB of offered traffic per run) trades fidelity for
// time; -quick trims parameter sweeps for a fast pass. Independent
// simulation runs within an experiment execute concurrently on -parallel
// workers (default: all cores); results are byte-identical for every
// -parallel value because each run's randomness derives only from the seed
// and the run's parameters, never from scheduling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/aeolus-transport/aeolus/internal/audit"
	"github.com/aeolus-transport/aeolus/internal/cliutil"
	"github.com/aeolus-transport/aeolus/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID (fig1..fig18, table1..table5) or \"all\"")
		list      = flag.Bool("list", false, "list available experiments")
		listSch   = flag.Bool("list-schemes", false, "print the scheme catalogue and exit")
		listTopo  = flag.Bool("list-topos", false, "print the topology catalogue and exit")
		digest    = flag.Bool("digest", false, "print golden-trace digests (see -scheme)")
		schemeID  = flag.String("scheme", "", "with -digest: restrict to this scheme ID")
		scenarios = flag.String("scenarios", "", "print the scenario files an experiment's runs resolve to (JSON array) and exit")
		budget    = flag.Int64("budget", 150, "offered traffic per run, MiB")
		seed      = flag.Uint64("seed", 1, "random seed")
		quick     = flag.Bool("quick", false, "trim parameter sweeps")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs per experiment")
		shards    = flag.Int("shards", 1, "spatial shards per run (>1 partitions each fabric; deterministic at a given count, but not always equal to the one-shard run, see experiments.Config.Shards)")
		progress  = flag.Bool("progress", stderrIsTerminal(), "report per-run progress on stderr")
		auditOn   = flag.Bool("audit", false, "verify packet-conservation invariants; exit 1 on any violation")
		jsonOut   = flag.Bool("json", false, "emit one JSON array of tables instead of aligned text")
		impair    = flag.String("impair", "", "inline impairment timeline applied to every run, ';'-separated steps")
		impFile   = flag.String("impair-file", "", "impairment timeline file, text or JSON (see internal/netem/timeline.go)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a post-run allocation profile to this file")
	)
	flag.Parse()
	if *schemeID != "" && !*digest {
		cliutil.Die(fmt.Errorf("-scheme %s: only -digest takes a scheme", *schemeID))
	}
	stopProfiles := cliutil.StartProfiles(*cpuProf, *memProf)
	defer stopProfiles()
	timeline := cliutil.Timeline(*impair, *impFile)

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Paper)
		}
		return
	}
	if cliutil.Catalogues(*listSch, *listTopo) {
		return
	}
	if *digest {
		printDigests(*schemeID)
		return
	}
	if *scenarios != "" {
		scfg := experiments.DefaultConfig()
		scfg.Budget = *budget << 20
		scfg.Seed = *seed
		scfg.Quick = *quick
		printScenarios(mustFind(*scenarios), scfg)
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Budget = *budget << 20
	cfg.Seed = *seed
	cfg.Quick = *quick
	cfg.Parallel = *parallel
	cfg.Shards = *shards
	cfg.Impair = timeline
	switch {
	case *shards < 1:
		cliutil.Die(fmt.Errorf("-shards %d: at least one shard is needed", *shards))
	case *parallel < 1:
		cliutil.Die(fmt.Errorf("-parallel %d: at least one worker is needed", *parallel))
	}
	selected := experiments.Registry
	if *exp != "all" {
		selected = []experiments.Experiment{mustFind(*exp)}
	}
	for _, e := range selected {
		check(e, cfg)
	}
	if *progress {
		cfg.Progress = experiments.ProgressPrinter(os.Stderr)
	}
	var auditMu sync.Mutex
	var violated int
	if *auditOn {
		cfg.Audit = true
		// An experiment's runs execute concurrently; serialize both the tally
		// and the stderr reporting.
		cfg.OnAudit = func(spec experiments.RunSpec, rep *audit.Report) {
			auditMu.Lock()
			defer auditMu.Unlock()
			if !rep.Ok() {
				violated++
				fmt.Fprintf(os.Stderr, "audit (%s on %s): %v\n", spec.Scheme.ID, spec.Topo, rep.Err())
			}
		}
	}

	var jsonTables []experiments.Table
	run := func(e experiments.Experiment) {
		start := time.Now()
		tables := e.Fn(cfg)
		for _, t := range tables {
			switch {
			case *jsonOut:
				jsonTables = append(jsonTables, t)
			case *csv:
				fmt.Printf("# %s,%s\n", t.ID, t.Title)
				t.CSV(os.Stdout)
				fmt.Println()
			default:
				t.Fprint(os.Stdout)
				fmt.Println()
			}
		}
		if *progress {
			fmt.Fprint(os.Stderr, "\r                                \r")
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	finish := func() {
		stopProfiles() // the exits below skip defers; flush the profiles first
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(jsonTables); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if violated > 0 {
			fmt.Fprintf(os.Stderr, "audit: %d run(s) violated conservation invariants\n", violated)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		run(e)
	}
	finish()
}

// mustFind looks an experiment up by ID; an unknown ID gets the list of
// known ones and exit 2.
func mustFind(id string) experiments.Experiment {
	e, err := experiments.ByID(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return e
}

// check validates every run e makes under cfg, as aeolussim validates its
// scenario: the first one the harness would reject exits 2 with
// "<id>: <error>" rather than panic mid-sweep.
func check(e experiments.Experiment, cfg experiments.Config) {
	if e.Check == nil {
		return
	}
	if err := e.Check(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
		os.Exit(2)
	}
}

// printDigests runs the golden trace and prints, per scheme, the behavior
// digest in the goldenDigests table format (for pasting into
// internal/experiments/golden_test.go after an intentional behavior change)
// alongside the digest of the scenario that declares the run: the pair ties
// "what was run" (scenario identity) to "what it did" (behavior). An unknown
// -scheme gets the catalogue and exit 2.
func printDigests(id string) {
	ids := []string{id}
	if id == "" {
		ids = ids[:0]
		for _, e := range experiments.Schemes() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		d, err := experiments.GoldenDigest(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc := experiments.GoldenScenario(id)
		fmt.Printf("%q: %q, // scenario %s\n", id, d, sc.Digest())
	}
}

// printScenarios emits the scenario values declaring an experiment's runs as
// a JSON array — each element is a complete scenario file, runnable with
// aeolussim -scenario — after validating them all. Experiments with no
// scenario-declared runs (the analytic fig2, the instrumented fig15/fig16)
// are reported and exit 2.
func printScenarios(e experiments.Experiment, cfg experiments.Config) {
	if e.Scenarios == nil {
		fmt.Fprintf(os.Stderr, "%s declares no scenario runs (analytic or instrumented microbenchmark)\n", e.ID)
		os.Exit(2)
	}
	check(e, cfg)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e.Scenarios(cfg)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// stderrIsTerminal reports whether stderr is an interactive terminal — the
// default for the \r-style progress line.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
