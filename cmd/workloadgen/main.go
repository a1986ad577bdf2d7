// Command workloadgen samples flow traces from the paper's workload
// distributions and prints them (or summary statistics). The analytic
// Figure 2 table is an experiment: aeolusbench -exp fig2.
//
// Examples:
//
//	workloadgen -workload WebSearch -flows 1000 -hosts 64 -load 0.4
//	workloadgen -workload DataMining -stats
//	workloadgen -workload my-trace.cdf -stats
//	workloadgen -workload WebServer -dump-cdf > webserver.cdf
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/aeolus-transport/aeolus/internal/cliutil"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

func main() {
	var (
		wlName = flag.String("workload", "WebSearch", "workload name or CDF file path")
		dump   = flag.Bool("dump-cdf", false, "print the workload in the CDF text format and exit")
		flows  = flag.Int("flows", 100, "flows to sample")
		hosts  = flag.Int("hosts", 64, "hosts to draw endpoints from")
		load   = flag.Float64("load", 0.4, "target edge load")
		rate   = flag.Int64("gbps", 100, "edge link rate, Gbps")
		seed   = flag.Uint64("seed", 1, "random seed")
		stat   = flag.Bool("stats", false, "print distribution statistics instead of a trace")
	)
	flag.Parse()

	wl, err := workload.Resolve(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dump {
		fmt.Print(wl.Text())
		return
	}
	if *stat {
		fmt.Printf("workload      %s\n", wl.Name())
		fmt.Printf("mean          %.0f bytes\n", wl.Mean())
		for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
			fmt.Printf("p%-12.0f %.0f bytes\n", p*100, wl.Quantile(p))
		}
		fmt.Printf("P(<=100KB)    %.3f\n", wl.Fraction(100e3))
		fmt.Printf("P(100KB-1MB)  %.3f\n", wl.Fraction(1e6)-wl.Fraction(100e3))
		fmt.Printf("P(>1MB)       %.3f\n", 1-wl.Fraction(1e6))
		return
	}

	// The generator draws two distinct endpoints per flow and spaces arrivals
	// by the load on the edge rate: reject what it cannot serve.
	switch {
	case *hosts < 2:
		cliutil.Die(fmt.Errorf("-hosts %d: a flow needs two distinct hosts", *hosts))
	case *flows < 0:
		cliutil.Die(fmt.Errorf("-flows %d: the flow count must not be negative", *flows))
	case !(*load > 0) || math.IsInf(*load, 1):
		cliutil.Die(fmt.Errorf("-load %v: the load must be positive and finite", *load))
	case *rate <= 0:
		cliutil.Die(fmt.Errorf("-gbps %d: the link rate must be positive", *rate))
	case *rate > int64(sim.Rate(math.MaxInt64)/sim.Gbps):
		cliutil.Die(fmt.Errorf("-gbps %d: the link rate overflows the simulator's bit rate (at most %d Gbps)",
			*rate, sim.Rate(math.MaxInt64)/sim.Gbps))
	}
	cfg := workload.PoissonConfig{
		CDF: wl, Hosts: *hosts, HostRate: sim.Rate(*rate) * sim.Gbps,
		Load: *load, Flows: *flows, Seed: *seed,
	}
	if err := cfg.Check(); err != nil {
		cliutil.Die(fmt.Errorf("-load %v -gbps %d: %v", *load, *rate, err))
	}
	fmt.Println("# id src dst size_bytes start_us")
	for _, f := range cfg.Generate() {
		fmt.Printf("%d %d %d %d %.3f\n", f.ID, f.Src, f.Dst, f.Size, f.Start.Microseconds())
	}
}
