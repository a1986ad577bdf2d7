package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// fig9Cfg is a budget small enough that the serial baseline stays cheap.
func fig9Cfg(seed uint64, parallel int) Config {
	return Config{Budget: 1 << 20, MinFlows: 12, MaxFlows: 40, Seed: seed,
		Quick: true, Parallel: parallel}
}

// TestPoolSerialEquivalence is the core determinism guarantee of the
// parallel fan-out: running fig9's scenarios through RunScenarios on 4
// workers must give results identical to a serial loop over Run, in
// declaration order, and the full fig9 tables must be identical
// cell-for-cell between Parallel=1 and Parallel=4. A second seed guards
// against accidental coupling between run seeds and scheduling.
func TestPoolSerialEquivalence(t *testing.T) {
	// Seed 1: raw results. The fig9 grid — (workload × scheme) cells — run
	// once serially via Run and once through RunScenarios; every field of
	// every RunResult (records included) must match.
	cfg := fig9Cfg(1, 4)
	scns := fig9.scenarios(cfg)
	serial := make([]RunResult, len(scns))
	for i := range scns {
		sem, spec := mustFromScenario(scns[i])
		serial[i] = Run(cfg.ForScenario(sem), spec)
	}
	parallel := RunScenarios(cfg, scns)
	if len(parallel) != len(serial) {
		t.Fatalf("%d parallel results, want %d", len(parallel), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("run %d diverged between serial and fanned-out execution:\nserial:   %+v\nparallel: %+v",
				i, serial[i].All, parallel[i].All)
		}
	}

	// Both seeds, end to end: the emitted []Table must be identical between
	// Parallel=1 and Parallel=4. The second seed guards against any
	// accidental coupling between run seeding and scheduling.
	for _, seed := range []uint64{1, 42} {
		t1 := regenerate(t, "fig9", fig9Cfg(seed, 1))
		t4 := regenerate(t, "fig9", fig9Cfg(seed, 4))
		if !reflect.DeepEqual(t1, t4) {
			t.Errorf("seed %d: fig9 tables differ between Parallel=1 and Parallel=4:\n%+v\nvs\n%+v", seed, t1, t4)
		}
	}
}

// TestPoolStress fans many tiny runs across a wide RunScenarios; its real
// assertion is the race detector (the Makefile runs this package under
// -race).
func TestPoolStress(t *testing.T) {
	cfg := Config{Parallel: 8}
	const runs = 48
	scns := make([]scenario.Scenario, runs)
	for i := range scns {
		scns[i] = scenario.Scenario{Topo: TopoSingleSwitch, Scheme: "xpass+aeolus",
			Seed: 3, SchemeSeed: uint64(i),
			Incast: &scenario.IncastSpec{Fanin: 3, Receiver: 0, MsgSize: 4_000,
				Seed: uint64(i), StartAt: 10 * sim.Microsecond}}
	}
	res := RunScenarios(cfg, scns)
	if len(res) != runs {
		t.Fatalf("collected %d results, want %d", len(res), runs)
	}
	for i, r := range res {
		if r.Completed != r.Total || r.Total == 0 {
			t.Errorf("run %d: completed %d of %d", i, r.Completed, r.Total)
		}
	}
}

// TestPoolProgress checks the reporter sees every completion exactly once,
// with the batch's run count as the total, under concurrent workers.
func TestPoolProgress(t *testing.T) {
	const n = 40
	var mu sync.Mutex
	seen := make(map[int]bool)
	cfg := Config{Parallel: 8, Progress: func(done, total int, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if done < 1 || done > n || seen[done] {
			t.Errorf("progress done=%d out of range or repeated", done)
		}
		seen[done] = true
		if total != n {
			t.Errorf("progress total=%d, want the batch's %d runs", total, n)
		}
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
	}}
	forEachPar(cfg, n, func(int) {})
	if len(seen) != n {
		t.Fatalf("progress reported %d distinct completions, want %d", len(seen), n)
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
