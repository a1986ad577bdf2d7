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
// experiment repeats over N consecutive seeds — executed concurrently on
// -parallel workers — and a cross-run summary is appended; results are
// independent of -parallel.
//
// -impair (inline steps) or -impair-file (text or JSON file) script link
// impairments — loss, failure, rate caps, delay — on the built topology; see
// internal/netem/timeline.go for the grammar. Injected drops show up in the
// drops line as impair=N and are audit-accounted like any other drop.
//
// -dump-scenario json|text prints the canonical scenario (internal/scenario)
// that the current flags resolve to, instead of running it; feeding that file
// back through -scenario reproduces the flag-driven run bit-identically. A
// flag-driven run passes the same validation as a scenario file, so flags
// and files accept the same runs. With -scenario, the run is fully
// determined by the scenario file: flags that would change what the run
// computes (-topo, -scheme, -seed, ...) are rejected, while runtime knobs
// (-audit, -parallel, -shards, -trace, -cdf) still apply.
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
	"github.com/aeolus-transport/aeolus/internal/workload"
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
		shards   = flag.Int("shards", 1, "spatial shards per run (>1 partitions the fabric across goroutines; results are identical)")
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
	flag.Func("opt", "scheme option as key=value (repeatable; keys are per-scheme)", func(s string) error {
		k, v, ok := strings.Cut(s, "=")
		if !ok || k == "" {
			return fmt.Errorf("want key=value, got %q", s)
		}
		opts[k] = v
		return nil
	})
	flag.Parse()

	if cliutil.Catalogues(*listSch, *listTopo) {
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Budget = *budget << 20
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.Shards = *shards
	cfg.Audit = *auditOn
	cfg.Trace.TraceFlow = *trace

	if *scenFile != "" {
		flag.Visit(func(f *flag.Flag) {
			if semanticFlags[f.Name] {
				cliutil.Die(fmt.Errorf("-%s conflicts with -scenario: the scenario file determines the run; edit it (or regenerate with -dump-scenario) instead", f.Name))
			}
		})
		sc := cliutil.LoadScenario(*scenFile)
		if *dumpScen != "" {
			dumpScenario(sc, *dumpScen)
			return
		}
		sem, spec, err := experiments.FromScenario(sc)
		if err != nil {
			cliutil.Die(err)
		}
		run := cfg.ForScenario(sem)
		if err := experiments.CheckRun(run, spec); err != nil {
			cliutil.Die(err)
		}
		r := experiments.Run(run, spec)
		print1(r, *cdf)
		exitOnViolations([]experiments.RunResult{r})
		return
	}

	wl := cliutil.Workload(*wlName)
	if wl == nil && *incast == 0 {
		fmt.Fprintln(os.Stderr, "nothing to send: give -workload and/or -incast")
		os.Exit(2)
	}
	if *runs < 1 {
		*runs = 1
	}
	tl := cliutil.Timeline(*impair, *impFile)

	specFor := func(runSeed uint64) experiments.RunSpec {
		spec := experiments.RunSpec{
			Scheme: experiments.SchemeSpec{
				ID: *scheme, Workload: wl, Opts: opts,
				RTO:       sim.Duration(*rtoUs) * sim.Microsecond,
				Threshold: *thresh, Seed: runSeed,
			},
			Topo: *topo, Buffer: *buffer,
			Workload: wl, CoreLoad: *load, Flows: *flows,
			Deadline: sim.Duration(*deadline) * sim.Millisecond,
			Impair:   tl,
		}
		if *incast > 0 {
			spec.Incast = &workload.IncastConfig{
				Fanin: *incast, Receiver: 0, MsgSize: *msg, Seed: runSeed,
				StartAt: sim.Time(10 * sim.Microsecond),
			}
		}
		return spec
	}

	// Validate up front, so a bad spec gets an error on stderr instead of a
	// panic or a wrong run: the topology name, then the checks a scenario
	// file gets — the structural ones on the scenario the flags resolve to
	// (ToScenario), then the scheme and its -opt values, the traffic and
	// the impairment timeline against the fabric (CheckRun).
	cliutil.Topo(*topo)
	sc, err := experiments.ToScenario(cfg, specFor(*seed))
	if err == nil {
		err = experiments.CheckRun(cfg, specFor(*seed))
	}
	if err != nil {
		cliutil.Die(err)
	}
	if *dumpScen != "" {
		dumpScenario(sc, *dumpScen)
		return
	}

	if *runs == 1 {
		r := experiments.Run(cfg, specFor(*seed))
		print1(r, *cdf)
		exitOnViolations([]experiments.RunResult{r})
		return
	}

	// Seed-replicated mode: the same experiment over consecutive seeds, fanned
	// across the pool. Each run derives everything from its own seed, so the
	// output is identical for every -parallel value.
	pool := experiments.NewPool(cfg)
	for i := 0; i < *runs; i++ {
		pool.Submit(specFor(*seed + uint64(i)))
	}
	results := pool.Collect()
	var smallMeans, allMeans, effs []float64
	for i, r := range results {
		fmt.Printf("run %-3d seed=%-5d small mean=%sus p99=%sus | all mean=%sus max=%sus | eff=%.3f timeouts=%d\n",
			i, *seed+uint64(i),
			stats.FormatDur(r.Small.Mean), stats.FormatDur(r.Small.P99),
			stats.FormatDur(r.All.Mean), stats.FormatDur(r.All.Max),
			r.Efficiency, r.TimeoutFlows)
		smallMeans = append(smallMeans, r.Small.Mean.Microseconds())
		allMeans = append(allMeans, r.All.Mean.Microseconds())
		effs = append(effs, r.Efficiency)
	}
	fmt.Printf("\nacross %d seeds (%s, %s):\n", *runs, results[0].Scheme, *topo)
	fmt.Printf("  small-flow mean FCT  %.2f ± %.2f us\n", mean(smallMeans), stddev(smallMeans))
	fmt.Printf("  all-flow mean FCT    %.2f ± %.2f us\n", mean(allMeans), stddev(allMeans))
	fmt.Printf("  efficiency           %.3f ± %.3f\n", mean(effs), stddev(effs))
	exitOnViolations(results)
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
