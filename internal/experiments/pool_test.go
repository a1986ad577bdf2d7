package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// fig9Cfg is a budget small enough that the serial baseline stays cheap.
func fig9Cfg(seed uint64, parallel int) Config {
	return Config{Budget: 1 << 20, MinFlows: 12, MaxFlows: 40, Seed: seed,
		Quick: true, Parallel: parallel}
}

// TestPoolSerialEquivalence is the core determinism guarantee of the
// parallel executor: running fig9's specs through a 4-worker Pool must give
// results identical to a serial loop over Run, and the full Fig9 tables must
// be identical cell-for-cell between Parallel=1 and Parallel=4. A second
// seed guards against accidental coupling between run seeds and scheduling.
func TestPoolSerialEquivalence(t *testing.T) {
	// Seed 1: raw results. The fig9 grid — (workload × scheme) cells — run
	// once serially via Run and once through a 4-worker pool; every field of
	// every RunResult (records included) must match.
	cfg := fig9Cfg(1, 4)
	var specs []RunSpec
	for _, wl := range workload.All {
		for _, id := range []string{"xpass", "xpass+aeolus"} {
			specs = append(specs, RunSpec{
				Scheme: SchemeSpec{ID: id, Workload: wl, Seed: cfg.Seed},
				Topo:   TopoFatTree, Workload: wl, CoreLoad: 0.4,
			})
		}
	}
	serial := make([]RunResult, len(specs))
	for i, s := range specs {
		serial[i] = Run(cfg, s)
	}
	pool := NewPool(cfg)
	for _, s := range specs {
		pool.Submit(s)
	}
	parallel := pool.Collect()
	if len(parallel) != len(serial) {
		t.Fatalf("%d parallel results, want %d", len(parallel), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("run %d diverged between serial and pooled execution:\nserial:   %+v\nparallel: %+v",
				i, serial[i].All, parallel[i].All)
		}
	}

	// Both seeds, end to end: the emitted []Table must be identical between
	// Parallel=1 and Parallel=4. The second seed guards against any
	// accidental coupling between run seeding and scheduling.
	for _, seed := range []uint64{1, 42} {
		t1 := Fig9(fig9Cfg(seed, 1))
		t4 := Fig9(fig9Cfg(seed, 4))
		if !reflect.DeepEqual(t1, t4) {
			t.Errorf("seed %d: Fig9 tables differ between Parallel=1 and Parallel=4:\n%+v\nvs\n%+v", seed, t1, t4)
		}
	}
}

// TestPoolStress hammers a wide pool with many tiny runs; its real assertion
// is the race detector (the Makefile runs this package under -race).
func TestPoolStress(t *testing.T) {
	cfg := Config{Budget: 1 << 20, MinFlows: 10, MaxFlows: 50, Seed: 3,
		Quick: true, Parallel: 8}
	p := NewPool(cfg)
	const runs = 48
	for i := 0; i < runs; i++ {
		p.Submit(RunSpec{
			Scheme: SchemeSpec{ID: "xpass+aeolus", Seed: uint64(i)},
			Topo:   TopoSingleSwitch,
			Incast: &workload.IncastConfig{Fanin: 3, Receiver: 0, MsgSize: 4_000,
				Seed: uint64(i), StartAt: sim.Time(10 * sim.Microsecond)},
		})
	}
	res := p.Collect()
	if len(res) != runs {
		t.Fatalf("collected %d results, want %d", len(res), runs)
	}
	for i, r := range res {
		if r.Completed != r.Total || r.Total == 0 {
			t.Errorf("run %d: completed %d of %d", i, r.Completed, r.Total)
		}
	}
}

// TestPoolPreservesSubmissionOrder injects a deliberately slow first run and
// checks that Collect still returns results by submission index, not by
// completion time.
func TestPoolPreservesSubmissionOrder(t *testing.T) {
	p := NewPool(Config{Parallel: 4})
	p.runFn = func(_ Config, spec RunSpec) RunResult {
		if spec.Flows == 0 {
			// The first-submitted run finishes last.
			time.Sleep(50 * time.Millisecond)
		}
		return RunResult{Total: spec.Flows, Scheme: "fake"}
	}
	const n = 16
	for i := 0; i < n; i++ {
		if idx := p.Submit(RunSpec{Flows: i}); idx != i {
			t.Fatalf("Submit returned index %d, want %d", idx, i)
		}
	}
	res := p.Collect()
	if len(res) != n {
		t.Fatalf("collected %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Total != i {
			t.Errorf("result %d carries marker %d; submission order not preserved", i, r.Total)
		}
	}
}

// TestPoolProgress checks the reporter sees every completion exactly once,
// with a monotone done count, under concurrent workers.
func TestPoolProgress(t *testing.T) {
	var mu sync.Mutex
	var calls int
	maxDone := 0
	cfg := Config{Parallel: 8, Progress: func(done, total int, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > maxDone {
			maxDone = done
		}
		if done < 1 || done > total {
			t.Errorf("progress done=%d total=%d out of range", done, total)
		}
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
	}}
	p := NewPool(cfg)
	p.runFn = func(Config, RunSpec) RunResult { return RunResult{} }
	const n = 40
	for i := 0; i < n; i++ {
		p.Submit(RunSpec{Flows: i})
	}
	p.Collect()
	if calls != n {
		t.Fatalf("progress called %d times, want %d", calls, n)
	}
	if maxDone != n {
		t.Fatalf("max done %d, want %d", maxDone, n)
	}
}

// TestForEachParCoversAllIndices checks the instrumented-run executor visits
// each index exactly once and writes race-free to per-index slots.
func TestForEachParCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 37
		got := make([]int, n)
		forEachPar(Config{Parallel: workers}, n, func(i int) { got[i] = i + 1 })
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not visited (got %d)", workers, i, v)
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := (Config{}).Workers(); w < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", w)
	}
	if w := (Config{Parallel: 5}).Workers(); w != 5 {
		t.Fatalf("Workers() = %d, want 5", w)
	}
}

func TestLockedWriter(t *testing.T) {
	var sb strings.Builder
	w := LockedWriter(&sb)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				w.Write([]byte("0123456789\n"))
			}
		}()
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if line != "0123456789" {
			t.Fatalf("interleaved write: %q", line)
		}
	}
}
