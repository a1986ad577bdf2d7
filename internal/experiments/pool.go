package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// The experiments layer is "embarrassingly parallel": every (scheme,
// workload, load) cell is one self-contained simulation run owning a private
// sim.Engine, netem.Network and PCG random streams, with seeds derived only
// from (Config.Seed, RunSpec). Pool exploits that: it fans runs across
// worker goroutines and hands the results back in submission order, so
// parallel output is byte-identical to a serial loop over Run.

// ProgressFunc observes run completions: done runs out of total submitted so
// far, and the wall-clock elapsed since the pool started. Implementations
// must be safe for concurrent calls from worker goroutines.
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

// Workers resolves the pool width: Parallel when positive, else GOMAXPROCS.
func (c Config) Workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Pool executes simulation runs on a fixed set of worker goroutines.
// Submission order is preserved: Collect returns result i for the i-th
// Submit call regardless of completion order. Runs share no state, so a
// Pool produces exactly the results of a serial loop over Run.
//
// A Pool is built for one experiment, fed from a single submitting
// goroutine, and torn down by Collect; it is not reusable afterwards.
type Pool struct {
	cfg  Config
	jobs chan poolJob
	wg   sync.WaitGroup

	// runFn is the run entry point; tests swap it to inject slow or
	// synthetic runs. Everything else goes through it unchanged.
	runFn func(Config, RunSpec) RunResult

	mu      sync.Mutex
	results []RunResult
	done    int

	start     time.Time
	collected bool
}

type poolJob struct {
	idx  int
	cfg  Config
	spec RunSpec
}

// NewPool starts cfg.Workers() workers and returns the pool.
func NewPool(cfg Config) *Pool {
	p := &Pool{
		cfg:   cfg,
		jobs:  make(chan poolJob),
		runFn: Run,
		start: time.Now(),
	}
	n := cfg.Workers()
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		res := p.runFn(j.cfg, j.spec)
		p.mu.Lock()
		p.results[j.idx] = res
		p.done++
		done, total := p.done, len(p.results)
		p.mu.Unlock()
		if p.cfg.Progress != nil {
			p.cfg.Progress(done, total, time.Since(p.start))
		}
	}
}

// Submit enqueues one run under the pool's Config and returns the index its
// result will occupy in the slice Collect returns. It blocks while all
// workers are busy; that backpressure bounds in-flight simulations at the
// worker count.
func (p *Pool) Submit(spec RunSpec) int {
	return p.SubmitCfg(p.cfg, spec)
}

// SubmitCfg is Submit with a per-run Config — the scenario path uses it,
// since every scenario carries its own semantic configuration (budget,
// seeds, clamps) layered over the pool's runtime knobs.
func (p *Pool) SubmitCfg(cfg Config, spec RunSpec) int {
	if p.collected {
		panic("experiments: Submit after Collect")
	}
	p.mu.Lock()
	idx := len(p.results)
	p.results = append(p.results, RunResult{})
	p.mu.Unlock()
	p.jobs <- poolJob{idx: idx, cfg: cfg, spec: spec}
	return idx
}

// Collect waits for every submitted run and returns the results in
// submission order. The pool cannot be used again afterwards.
func (p *Pool) Collect() []RunResult {
	if p.collected {
		panic("experiments: Collect called twice")
	}
	p.collected = true
	close(p.jobs)
	p.wg.Wait()
	return p.results
}

// forEachPar runs fn(0..n-1) across cfg.Workers() goroutines and waits for
// all of them. It serves runs that need per-run instrumentation (the §5.5
// microbenchmarks attach samplers inside the run) rather than plain Run;
// each fn call must be self-contained and write only to caller-owned slots
// distinct per index.
func forEachPar(cfg Config, n int, fn func(i int)) {
	workers := cfg.Workers()
	if workers > n {
		workers = n
	}
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
// underlying stream (os.Stderr for Config.Trace.TraceFlow).
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
