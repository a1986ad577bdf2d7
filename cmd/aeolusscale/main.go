// Command aeolusscale runs the open-loop scale sweep (experiment "scale")
// over the full {64, 256, 1024}-host × {0.4, 0.8}-load grid and records the
// measurements in a JSON ledger:
//
//	aeolusscale -o BENCH_scale.json
//	aeolusscale -quick          # 64- and 256-host fabrics only
//
// The ledger keeps a frozen "baseline" section alongside the latest run
// (same layout as cmd/benchjson): the first write seeds the baseline, and
// committing the file freezes the reference the scale-smoke CI gates compare
// against. Cells run serially, smallest fabric first, because wall-clock
// throughput and the kernel's RSS high-water mark are process-wide.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/aeolus-transport/aeolus/internal/cliutil"
	"github.com/aeolus-transport/aeolus/internal/experiments"
)

func main() {
	var (
		out     = flag.String("o", "BENCH_scale.json", "output ledger; its baseline section is preserved")
		note    = flag.String("note", "open-loop scale sweep: leafspine n x n, WebServer, xpass+aeolus, 100 flows/host", "ledger note (kept if the file already has one)")
		seed    = flag.Uint64("seed", 1, "random seed")
		quick   = flag.Bool("quick", false, "trim the grid to the 64- and 256-host fabrics")
		shards  = flag.Int("shards", 1, "spatial shards per run; sharded cells get a /sN ledger key and merge alongside the sequential ones")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf = flag.String("memprofile", "", "write a post-sweep allocation profile to this file")
	)
	flag.Parse()
	stopProfiles := cliutil.StartProfiles(*cpuProf, *memProf)
	defer stopProfiles()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Quick = *quick
	cfg.Shards = *shards
	cfg.Progress = func(done, total int, elapsed time.Duration) {
		fmt.Fprintf(os.Stderr, "[%d/%d cells, %v]\n", done, total, elapsed.Round(100*time.Millisecond))
	}

	points := experiments.RunScaleGrid(cfg)
	for _, p := range points {
		fmt.Printf("%-12s %9d flows  %12d events  %7.2fs  %10.3g ev/s  peak pending %8d  heap %6.1f MB  %5.0f B/flow  audit %s\n",
			p.Key(), p.Flows, p.Events, p.WallSeconds, p.EventsPerSec,
			p.PeakPending, float64(p.HeapPeakBytes)/(1<<20), p.StateBytesPerFlow,
			map[bool]string{true: "clean", false: "VIOLATED"}[p.AuditClean])
	}
	stopProfiles() // os.Exit below skips defers; flush the profiles first
	if err := experiments.WriteScaleLedger(*out, *note, points); err != nil {
		fmt.Fprintln(os.Stderr, "aeolusscale:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "aeolusscale: wrote %d cells to %s\n", len(points), *out)
	for _, p := range points {
		if !p.AuditClean {
			fmt.Fprintln(os.Stderr, "aeolusscale: audit violations; see the audit_clean fields")
			os.Exit(1)
		}
	}
}
