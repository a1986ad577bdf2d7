// Command benchjson converts `go test -bench -benchmem` output (stdin) into
// a machine-readable JSON ledger, preserving the "baseline" section of the
// existing output file so regressions stay visible against the committed
// pre-optimization numbers (an output file it cannot read or parse is left
// as it is, and benchjson exits 1):
//
//	go test -bench . -benchtime 100x -benchmem -run '^$' ./... | benchjson -o BENCH_micro.json
//
// The ledger maps benchmark name (GOMAXPROCS suffix stripped) to ns/op,
// B/op, allocs/op and any custom metrics (e.g. packets/sec).
//
// With -compare, benchjson instead reads BENCH_scale.json ledgers and prints
// per-cell ratios for events/sec, state_bytes_per_flow, heap_peak_bytes and
// peak_pending — flagging throughput that fell below -threshold or memory /
// scheduler pressure that grew beyond 1/threshold — exiting nonzero when any
// metric of any cell regressed:
//
//	benchjson -compare before.json after.json   # after ÷ before, per cell
//	benchjson -compare BENCH_scale.json         # current ÷ baseline, one file
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/experiments"
)

// Result is one benchmark's measurements. Custom metrics reported via
// testing.B.ReportMetric land in Metrics keyed by their unit.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Ledger is the file layout: the frozen baseline plus the latest run.
type Ledger struct {
	Note     string            `json:"note,omitempty"`
	Baseline map[string]Result `json:"baseline,omitempty"`
	Current  map[string]Result `json:"current"`
}

func main() {
	out := flag.String("o", "BENCH_micro.json", "output file; its baseline section is preserved")
	compare := flag.Bool("compare", false,
		"compare scale ledgers: two files (after ÷ before) or one (current ÷ baseline)")
	threshold := flag.Float64("threshold", 0.9,
		"with -compare, flag cells whose events/sec ratio falls below this, or whose memory/pressure ratios exceed its reciprocal")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(os.Stdout, flag.Args(), *threshold))
	}

	current, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	// Only a missing ledger starts a fresh one. An unreadable or damaged
	// ledger is left untouched: rewriting it would re-seed the frozen
	// baseline from this run.
	var led Ledger
	prev, err := os.ReadFile(*out)
	if err == nil {
		err = json.Unmarshal(prev, &led)
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "benchjson: %s left untouched: %v\n", *out, err)
		os.Exit(1)
	}
	led.Current = current
	if led.Baseline == nil {
		// First run seeds the baseline; commit it to freeze the reference.
		led.Baseline = current
	}

	buf, err := json.MarshalIndent(&led, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(current), *out)
}

// runCompare loads the requested scale ledgers and prints the per-cell
// comparison, returning the process exit status: 0 when no cell regressed,
// 1 when at least one did, 2 on usage or load errors.
func runCompare(w io.Writer, args []string, threshold float64) int {
	var before, after map[string]experiments.ScalePoint
	var beforeName, afterName string
	switch len(args) {
	case 1:
		led, err := experiments.LoadScaleLedger(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
		before, after = led.Baseline, led.Current
		beforeName, afterName = args[0]+":baseline", args[0]+":current"
	case 2:
		var err error
		if before, beforeName, err = loadCells(args[0]); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
		if after, afterName, err = loadCells(args[1]); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
	default:
		fmt.Fprintln(os.Stderr, "benchjson: -compare wants one or two ledger files")
		return 2
	}
	report, regressed := compareCells(before, after, threshold)
	fmt.Fprintf(w, "events/sec ratio: %s ÷ %s (threshold %g)\n", afterName, beforeName, threshold)
	fmt.Fprint(w, report)
	if regressed > 0 {
		fmt.Fprintf(w, "%d cell(s) regressed\n", regressed)
		return 1
	}
	return 0
}

// loadCells reads one ledger's current section (the measured cells).
func loadCells(path string) (map[string]experiments.ScalePoint, string, error) {
	led, err := experiments.LoadScaleLedger(path)
	if err != nil {
		return nil, "", err
	}
	return led.Current, path + ":current", nil
}

// sideMetrics are the per-cell measurements compared alongside events/sec.
// They are all higher-is-worse: a cell regresses when the after÷before ratio
// exceeds 1/threshold — the mirror image of the events/sec rule — so one
// -threshold flag governs both directions. A metric absent (zero) on either
// side is skipped: old ledgers predate some fields, and a zero divisor has no
// ratio.
var sideMetrics = []struct {
	name string
	val  func(experiments.ScalePoint) float64
}{
	{"state/flow", func(p experiments.ScalePoint) float64 { return p.StateBytesPerFlow }},
	{"heapPeak", func(p experiments.ScalePoint) float64 { return float64(p.HeapPeakBytes) }},
	{"peakPending", func(p experiments.ScalePoint) float64 { return float64(p.PeakPending) }},
}

// compareCells renders the per-cell comparison table for every cell key the
// two sides share, in sorted key order: the events/sec ratio (regressed when
// below threshold) plus the memory and scheduler-pressure ratios (regressed
// when above 1/threshold), counting every flagged metric. Cells present on
// only one side are listed — a silent disappearance would otherwise read as
// "no regression".
func compareCells(before, after map[string]experiments.ScalePoint, threshold float64) (string, int) {
	var keys []string
	for k := range before {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	regressed := 0
	for _, k := range keys {
		a, ok := after[k]
		if !ok {
			fmt.Fprintf(&b, "%-16s only in before ledger\n", k)
			continue
		}
		o := before[k]
		if o.EventsPerSec <= 0 {
			fmt.Fprintf(&b, "%-16s before events/sec is zero; no ratio\n", k)
			continue
		}
		ratio := a.EventsPerSec / o.EventsPerSec
		flag := ""
		if ratio < threshold {
			flag = "  REGRESSED"
			regressed++
		}
		extra := ""
		for _, m := range sideMetrics {
			ov, av := m.val(o), m.val(a)
			if ov <= 0 || av <= 0 {
				continue
			}
			r := av / ov
			tag := ""
			if r*threshold > 1 {
				tag = " REGRESSED"
				regressed++
			}
			extra += fmt.Sprintf("  %s x%.2f%s", m.name, r, tag)
		}
		fmt.Fprintf(&b, "%-16s %11.3g -> %11.3g  x%.2f%s%s\n",
			k, o.EventsPerSec, a.EventsPerSec, ratio, flag, extra)
	}
	var extra []string
	for k := range after {
		if _, ok := before[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(&b, "%-16s only in after ledger (%.3g events/sec)\n", k, after[k].EventsPerSec)
	}
	return b.String(), regressed
}

// parse extracts benchmark lines. A line looks like:
//
//	BenchmarkPortPath-8   1000   179.5 ns/op   11 B/op   0 allocs/op
//
// with tab-separated "value unit" cells after the iteration count.
func parse(f *os.File) (map[string]Result, error) {
	res := make(map[string]Result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			// Strip the -GOMAXPROCS suffix, but not a -suffix inside a
			// sub-benchmark name that isn't numeric.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := res[name]
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = v
			}
		}
		res[name] = r
	}
	return res, sc.Err()
}
