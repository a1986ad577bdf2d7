package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The experiments layer is "embarrassingly parallel": every (scheme,
// workload, load) cell is one self-contained simulation run owning a private
// sim.Engine, netem.Network and PCG random streams, with seeds derived only
// from the run's scenario. forEachPar exploits that: it fans a batch of runs
// across worker goroutines, each writing only its own result slot, so
// parallel output is byte-identical to a serial loop over Run.

// ProgressFunc observes run completions: done runs out of the batch's total,
// and the wall-clock elapsed since the batch started. Implementations must be
// safe for concurrent calls from worker goroutines.
type ProgressFunc func(done, total int, elapsed time.Duration)

// ProgressPrinter returns a mutex-guarded ProgressFunc that rewrites a
// single status line on w (carriage return, no newline), suitable for an
// interactive stderr.
func ProgressPrinter(w io.Writer) ProgressFunc {
	var mu sync.Mutex
	return func(done, total int, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "\r[%d/%d runs, %v]        ", done, total,
			elapsed.Round(100*time.Millisecond))
	}
}

// Workers resolves the fan-out width: Parallel when positive, else
// GOMAXPROCS.
func (c Config) Workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// forEachPar runs fn(0..n-1) across cfg.Workers() goroutines, waits for all
// of them, and reports each completion to cfg.Progress out of n. It is the
// one fan-out of the package: RunScenarios drives it with plain Run, and the
// §5.5 microbenchmarks with runs that attach probes inside. Each fn call must
// be self-contained and write only to caller-owned slots distinct per index.
func forEachPar(cfg Config, n int, fn func(i int)) {
	if cfg.Progress != nil {
		var done atomic.Int64
		start, run := time.Now(), fn
		fn = func(i int) {
			run(i)
			cfg.Progress(int(done.Add(1)), n, time.Since(start))
		}
	}
	workers := min(cfg.Workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// lockedWriter serializes writes from concurrently-traced runs onto one
// underlying stream (os.Stderr for Config.TraceFlow).
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// LockedWriter wraps w so concurrent runs can share it safely.
func LockedWriter(w io.Writer) io.Writer { return &lockedWriter{w: w} }

// stderrLocked is the default sink for packet traces: one lock for the whole
// process so lines from concurrently-traced runs never interleave mid-line.
var stderrLocked = LockedWriter(os.Stderr)
