// Command aeolusperf is the repository's benchmark (see bench/README.md).
//
// Usage:
//
//	aeolusperf [-seed 1] [-reps 5] [-out set.json] [-trace DIR]
//	aeolusperf -workload NAME [-seed N] [-seconds S] [-trace 0|1|DIR]
//	aeolusperf -compare A.json B.json
//
// The first form runs a set: -reps reps of every workload, round-robin,
// each rep in a fresh child process, plus an audited check rep of each
// unaudited workload. It prints every end-to-end metric as median, quartiles
// and sample count, the output checks, and the per-layer metrics, and exits
// 1 if any output check failed. -trace adds one traced rep per workload and
// writes spans.jsonl, cpu.pprof and layers.json under DIR/<workload>.
//
// The second form measures one workload for S seconds and prints one JSON
// line: the end-to-end medians, or with tracing on the per-layer metrics.
// -trace 1 traces into .bench_build/trace/<workload>.
//
// The third form judges every (workload, end-to-end metric) pair of set B
// against set A and exits 1 if any is worse.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/aeolus-transport/aeolus/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(bench.ChildMain(os.Args[1:], os.Stdout))
	}
	var (
		seed     = flag.Uint64("seed", 1, "seed of every run")
		reps     = flag.Int("reps", 5, "timed reps per workload in a set")
		out      = flag.String("out", "", "write the set as JSON to this file")
		trace    = flag.String("trace", "0", "0: no tracing; 1: trace into .bench_build/trace; otherwise the directory to trace into")
		workload = flag.String("workload", "", "measure this one workload for -seconds and print one JSON line")
		seconds  = flag.Float64("seconds", 20, "with -workload: how long to measure")
		compare  = flag.Bool("compare", false, "compare the two set files given as arguments")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *reps < 1 {
		fail(2, fmt.Errorf("-reps %d: need at least 1", *reps))
	}
	exe, err := os.Executable()
	if err != nil {
		fail(1, err)
	}
	runner := &bench.Runner{Exe: exe}
	traceRoot := ""
	switch *trace {
	case "", "0":
	case "1":
		traceRoot = filepath.Join(".bench_build", "trace")
	default:
		traceRoot = *trace
	}
	// Children are killed when the context ends, on a signal or at the
	// deadline of a measured run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workload != "" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			fail(2, err)
		}
		d := time.Duration(*seconds * float64(time.Second))
		ctx, cancel := context.WithTimeout(ctx, d+150*time.Second)
		defer cancel()
		dir := ""
		if traceRoot != "" {
			dir = filepath.Join(traceRoot, w.Name)
		}
		res, err := runner.Measure(ctx, w, *seed, d, dir)
		if err != nil {
			fail(1, err)
		}
		line, err := res.ResultLine(dir != "")
		if err != nil {
			fail(1, err)
		}
		report(res)
		fmt.Println(string(line))
		if res.Failed() > 0 {
			os.Exit(1)
		}
		return
	}

	results, err := runner.Set(ctx, *seed, *reps, traceRoot)
	if err != nil {
		fail(1, err)
	}
	sf := bench.NewSetFile(results, *seed, *reps)
	sf.Print(os.Stdout)
	failed := 0
	for _, res := range results {
		report(res)
		failed += res.Failed()
	}
	if *out != "" {
		if err := bench.WriteSetFile(*out, sf); err != nil {
			fail(1, err)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// report prints every failed output check to stderr.
func report(res *bench.Result) {
	for _, p := range res.Problems() {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: aeolusperf -compare A.json B.json")
		return 2
	}
	a, err := bench.ReadSetFile(args[0])
	if err != nil {
		fail(2, err)
	}
	b, err := bench.ReadSetFile(args[1])
	if err != nil {
		fail(2, err)
	}
	if bench.PrintCompare(os.Stdout, bench.Compare(a, b)) {
		return 1
	}
	return 0
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "aeolusperf:", err)
	os.Exit(code)
}
