// Command aeolussim runs ad-hoc simulations from flags and prints a
// summary: pick a topology, a scheme, a workload and a load (and/or an
// incast), and get FCT statistics, efficiency, goodput and drop counters.
//
// Examples:
//
//	aeolussim -topo leafspine -scheme homa+aeolus -workload WebSearch -load 0.5 -flows 2000
//	aeolussim -topo single -scheme xpass+aeolus -incast 7 -msg 40000
//	aeolussim -topo fattree -scheme xpass -workload my-trace.cdf -runs 8 -parallel 4
//	aeolussim -topo 'clos:16x2g8/8/4,hosts=8,rate=100Gbps' -scheme xpass+aeolus -workload WebServer
//	aeolussim -topo micro -scheme ndp+aeolus -incast 16 -audit \
//	    -impair '0s sw0->* loss rate=0.01; 50us sw0->h0 fail; 150us sw0->h0 restore'
//	aeolussim -scheme xpass+aeolus -incast 7 -dump-scenario json > run.json
//	aeolussim -scenario run.json
//
// -topo accepts a catalogue name (-list-topos for the catalogue) or an ad-hoc
// parameterized Clos spec in the "clos:" grammar of internal/netem; an
// unknown name is rejected up front with the catalogue listing.
//
// -workload accepts either a built-in name or the path of a CDF file in the
// "<bytes> <cumulative probability>" text format. With -runs N the same
// experiment repeats over N consecutive scheme and incast seeds — executed
// concurrently on -parallel workers — and a cross-run summary is appended;
// results are independent of -parallel.
//
// -impair (inline steps) or -impair-file (text or JSON file) script link
// impairments — loss, failure, rate caps, delay — on the built topology; see
// internal/netem/timeline.go for the grammar. Injected drops show up in the
// drops line as impair=N and are audit-accounted like any other drop.
//
// The flags build a scenario (internal/scenario), and the run is that
// scenario: -dump-scenario json|text prints it instead of running it, and
// feeding that file back through -scenario reproduces the flag-driven run
// bit-identically. Flags and files pass the same validation, under the
// runtime knobs the run gets, so they accept the same runs. With -scenario,
// the run is fully determined by the scenario file: flags that would change
// what the run computes (-topo, -scheme, -seed, ...) are rejected, while
// runtime knobs (-audit, -parallel, -shards, -trace, -cdf) still apply.
// -trace needs one engine, so it is rejected with -shards on a fabric that
// splits.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/cliutil"
	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
)

// semanticFlags are the flags that change what a run computes — exactly the
// information a scenario file carries. With -scenario they are rejected, so a
// scenario can never be silently half-overridden from the command line.
var semanticFlags = map[string]bool{
	"topo": true, "scheme": true, "opt": true, "workload": true, "load": true,
	"flows": true, "budget": true, "incast": true, "msg": true, "buffer": true,
	"threshold": true, "rto": true, "seed": true, "deadline": true,
	"impair": true, "impair-file": true, "runs": true,
}

func main() {
	var (
		topo     = flag.String("topo", "leafspine", "topology: catalogue name (-list-topos) or clos:<spec>")
		scheme   = flag.String("scheme", "xpass+aeolus", "scheme ID (-list-schemes for the catalogue)")
		listSch  = flag.Bool("list-schemes", false, "print the scheme catalogue and exit")
		listTopo = flag.Bool("list-topos", false, "print the topology catalogue and exit")
		wlName   = flag.String("workload", "", "workload name (WebServer, CacheFollower, WebSearch, DataMining) or CDF file path")
		load     = flag.Float64("load", 0.4, "core load for the Poisson workload")
		flows    = flag.Int("flows", 0, "flow count (0 = derive from -budget)")
		budget   = flag.Int64("budget", 64, "offered traffic, MiB (when -flows is 0)")
		incast   = flag.Int("incast", 0, "add an N-to-1 incast with this fan-in")
		msg      = flag.Int64("msg", 64_000, "incast message size, bytes")
		buffer   = flag.Int64("buffer", 0, "per-port buffer bytes (0 = 200KB)")
		thresh   = flag.Int64("threshold", 0, "selective dropping threshold bytes (0 = default)")
		rtoUs    = flag.Int64("rto", 0, "RTO override, microseconds (0 = scheme default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		runs     = flag.Int("runs", 1, "repeat over this many consecutive seeds")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs (with -runs > 1)")
		shards   = flag.Int("shards", 1, "spatial shards per run (>1 partitions the fabric across goroutines; deterministic at a given count, but not always equal to the one-shard run, see experiments.Config.Shards)")
		deadline = flag.Int64("deadline", 500, "extra simulated time after last arrival, ms")
		trace    = flag.Uint64("trace", 0, "print a packet trace for this flow ID")
		cdf      = flag.Bool("cdf", false, "print the small-flow FCT CDF (the paper's figure format)")
		auditOn  = flag.Bool("audit", false, "verify packet-conservation invariants; exit 1 on any violation")
		impair   = flag.String("impair", "", "inline impairment timeline, ';'-separated steps (e.g. '0s sw0->* loss rate=0.01; 50us sw0->h0 fail; 150us sw0->h0 restore')")
		impFile  = flag.String("impair-file", "", "impairment timeline file, text or JSON (see internal/netem/timeline.go)")
		scenFile = flag.String("scenario", "", "run this scenario file (JSON or canonical text) instead of building the run from flags")
		dumpScen = flag.String("dump-scenario", "", "print the canonical scenario the flags resolve to, in this form (json or text), and exit")
	)
	opts := map[string]string{}
	flag.Func("opt", "scheme option as key=value (repeatable, each key once; keys are per-scheme)", func(s string) error {
		k, v, ok := strings.Cut(s, "=")
		if !ok || k == "" {
			return fmt.Errorf("want key=value, got %q", s)
		}
		if _, dup := opts[k]; dup {
			return fmt.Errorf("repeated key %q", k)
		}
		opts[k] = v
		return nil
	})
	flag.Parse()

	if cliutil.Catalogues(*listSch, *listTopo) {
		return
	}

	switch {
	case *shards < 1:
		cliutil.Die(fmt.Errorf("-shards %d: at least one shard is needed", *shards))
	case *parallel < 1:
		cliutil.Die(fmt.Errorf("-parallel %d: at least one worker is needed", *parallel))
	}
	cfg := experiments.Config{Parallel: *parallel, Shards: *shards, Audit: *auditOn, TraceFlow: *trace}
	var scns []scenario.Scenario
	if *scenFile != "" {
		flag.Visit(func(f *flag.Flag) {
			if semanticFlags[f.Name] {
				cliutil.Die(fmt.Errorf("-%s conflicts with -scenario: the scenario file determines the run; edit it (or regenerate with -dump-scenario) instead", f.Name))
			}
		})
		scns = []scenario.Scenario{*cliutil.LoadScenario(*scenFile)}
	} else {
		switch {
		case *runs < 1:
			cliutil.Die(fmt.Errorf("-runs %d: at least one run is needed", *runs))
		case *incast < 0:
			cliutil.Die(fmt.Errorf("-incast %d: the fan-in must not be negative", *incast))
		}
		wl := cliutil.Workload(*wlName)
		if wl == nil && *incast == 0 {
			fmt.Fprintln(os.Stderr, "nothing to send: give -workload and/or -incast")
			os.Exit(2)
		}
		sc := scenario.Scenario{
			Topo: *topo, Scheme: *scheme, Opts: opts,
			RTO:       sim.Duration(*rtoUs) * sim.Microsecond,
			Threshold: *thresh, Seed: *seed, SchemeSeed: *seed,
			Workload: scenario.From(wl), Flows: *flows, Buffer: *buffer,
			Deadline: sim.Duration(*deadline) * sim.Millisecond,
			Impair:   cliutil.Timeline(*impair, *impFile),
		}
		if wl != nil {
			// The core load drives only the Poisson arrivals, and the budget
			// and clamps only a derived flow count; anywhere else they are
			// dead knobs that would pollute the scenario digest.
			sc.CoreLoad = *load
			if *flows == 0 {
				d := experiments.DefaultConfig()
				sc.Budget, sc.MinFlows, sc.MaxFlows = *budget<<20, d.MinFlows, d.MaxFlows
			}
		}
		if *incast > 0 {
			sc.Incast = &scenario.IncastSpec{Fanin: *incast, MsgSize: *msg, Seed: *seed,
				StartAt: 10 * sim.Microsecond}
		}
		// An unknown topology is reported ahead of any other flag mistake.
		cliutil.Topo(*topo)
		// -runs N: the same run over N consecutive scheme and incast seeds.
		scns = make([]scenario.Scenario, *runs)
		for i := range scns {
			scns[i] = sc
			scns[i].SchemeSeed += uint64(i)
			if sc.Incast != nil {
				ic := *sc.Incast
				ic.Seed += uint64(i)
				scns[i].Incast = &ic
			}
		}
	}

	// Validate up front, under the runtime knobs the run gets, so a bad run
	// gets an error on stderr instead of a panic or a wrong run: the
	// scenario's structure, then the scheme and its -opt values, the
	// traffic, the shard rule and the impairment timeline against the
	// fabric. The copies of -runs differ only in their seeds.
	if err := experiments.CheckScenario(cfg, &scns[0]); err != nil {
		cliutil.Die(err)
	}
	if *dumpScen != "" {
		dumpScenario(&scns[0], *dumpScen)
		return
	}
	results := experiments.RunScenarios(cfg, scns)
	if len(results) == 1 {
		print1(results[0], *cdf)
	} else {
		printRuns(scns, results)
	}
	exitOnViolations(results)
}

// printRuns prints one line per seed-replicated run and the cross-run
// summary.
func printRuns(scns []scenario.Scenario, results []experiments.RunResult) {
	var smallMeans, allMeans, effs []float64
	for i, r := range results {
		fmt.Printf("run %-3d seed=%-5d small mean=%sus p99=%sus | all mean=%sus max=%sus | eff=%.3f timeouts=%d\n",
			i, scns[i].SchemeSeed,
			stats.FormatDur(r.Small.Mean), stats.FormatDur(r.Small.P99),
			stats.FormatDur(r.All.Mean), stats.FormatDur(r.All.Max),
			r.Efficiency, r.TimeoutFlows)
		smallMeans = append(smallMeans, r.Small.Mean.Microseconds())
		allMeans = append(allMeans, r.All.Mean.Microseconds())
		effs = append(effs, r.Efficiency)
	}
	fmt.Printf("\nacross %d seeds (%s, %s):\n", len(results), results[0].Scheme, scns[0].Topo)
	fmt.Printf("  small-flow mean FCT  %.2f ± %.2f us\n", mean(smallMeans), stddev(smallMeans))
	fmt.Printf("  all-flow mean FCT    %.2f ± %.2f us\n", mean(allMeans), stddev(allMeans))
	fmt.Printf("  efficiency           %.3f ± %.3f\n", mean(effs), stddev(effs))
}

// dumpScenario prints the scenario in the requested interchange form. File
// references are inlined first, so the dump is self-contained: running it
// elsewhere needs no CDF files lying around.
func dumpScenario(sc *scenario.Scenario, form string) {
	if err := sc.Inline(); err != nil {
		cliutil.Die(err)
	}
	switch form {
	case "json":
		buf, err := sc.JSON()
		if err != nil {
			cliutil.Die(err)
		}
		os.Stdout.Write(buf)
	case "text":
		fmt.Print(sc.Text())
	default:
		cliutil.Die(fmt.Errorf("-dump-scenario: want json or text, got %q", form))
	}
}

// exitOnViolations prints every audit violation and exits nonzero when any
// audited run failed an invariant.
func exitOnViolations(results []experiments.RunResult) {
	bad := false
	for i, r := range results {
		if r.Audit == nil || r.Audit.Ok() {
			continue
		}
		bad = true
		fmt.Fprintf(os.Stderr, "run %d: %v\n", i, r.Audit.Err())
	}
	if bad {
		os.Exit(1)
	}
}

func print1(r experiments.RunResult, cdf bool) {
	fmt.Printf("scheme       %s\n", r.Scheme)
	fmt.Printf("flows        %d/%d completed\n", r.Completed, r.Total)
	fmt.Printf("small flows  n=%d p50=%sus p99=%sus p99.9=%sus mean=%sus in1RTT=%.3f\n",
		r.Small.N, stats.FormatDur(r.Small.P50), stats.FormatDur(r.Small.P99),
		stats.FormatDur(r.Small.P999), stats.FormatDur(r.Small.Mean), r.FirstRTTFrac)
	fmt.Printf("all flows    n=%d mean=%sus max=%sus slowdown(mean)=%.1f slowdown(p99)=%.1f\n",
		r.All.N, stats.FormatDur(r.All.Mean), stats.FormatDur(r.All.Max),
		r.All.MeanSlowdown, r.All.P99Slowdown)
	fmt.Printf("efficiency   %.3f\n", r.Efficiency)
	fmt.Printf("goodput      %.3f (whole run)   %.3f (steady window)\n", r.Goodput, r.WindowGoodput)
	fmt.Printf("timeouts     %d flows\n", r.TimeoutFlows)
	fmt.Printf("drops        tail=%d selective=%d credit=%d trim-fail=%d impair=%d\n",
		r.Drops[0], r.Drops[1], r.Drops[2], r.Drops[3], r.Drops[4])
	if a := r.Audit; a != nil {
		fmt.Printf("audit        %d events: injected=%d delivered=%d (unique %d) dropped=%d trimmed=%d residual=%d violations=%d\n",
			a.Events, a.InjectedPayload, a.DeliveredPayload, a.UniquePayload,
			a.DroppedPayload, a.TrimmedPayload, a.ResidualPayload, len(a.Violations)+a.Truncated)
	}
	if cdf {
		fmt.Println("\n# small-flow FCT CDF: fct_us cumulative_fraction")
		for _, pt := range r.SmallCDF {
			fmt.Printf("%.2f %.4f\n", pt[0], pt[1])
		}
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := mean(v)
	var s float64
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(v)-1))
}
