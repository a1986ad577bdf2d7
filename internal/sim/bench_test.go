package sim

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/raceflag"
)

// BenchmarkEngineSchedule measures raw event throughput: schedule + fire.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(i%1000), func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// benchTick is a trivial Handler for measuring closure-free dispatch.
type benchTick struct{ n int }

func (t *benchTick) Fire() { t.n++ }

// BenchmarkEngineScheduleHandler measures the closure-free Handler path:
// schedule + fire with zero environment capture.
func BenchmarkEngineScheduleHandler(b *testing.B) {
	e := NewEngine()
	var tick benchTick
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AtHandler(e.Now()+Time(i%1000), &tick)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineTimerChurn measures the cancel-heavy pattern transports
// used for retransmission timers before Timer existed.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var pending Handle
	for i := 0; i < b.N; i++ {
		pending.Cancel()
		pending = e.At(e.Now()+1000, func() {})
		if i%256 == 255 {
			// Advance past the armed horizon so the surviving event fires;
			// each Cancel already removed its event and recycled the slot.
			e.RunUntil(e.Now() + 2000)
		}
	}
	e.Run()
}

// BenchmarkTimerReset measures the rearmable-timer replacement for the
// cancel-and-reallocate churn pattern.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	var tm Timer
	tm.Init(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(1000)
		if i%256 == 255 {
			e.RunUntil(e.Now() + 2000)
		}
	}
	e.Run()
}

// BenchmarkEngineCancel measures schedule-then-cancel round trips — the cost
// of a retransmission timer that is armed and then satisfied before firing.
// Cancel is a true removal, so the queue never accumulates dead entries.
func BenchmarkEngineCancel(b *testing.B) {
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		b.Run(string(kind), func(b *testing.B) {
			e := NewEngineWith(kind)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := e.At(e.Now()+Time(1+i%4096), func() {})
				h.Cancel()
			}
			e.Run()
		})
	}
}

// BenchmarkEngineDrain measures pure dispatch: batches of events across a
// spread of deadlines, drained in one Run. This is the popDue/cascade path.
func BenchmarkEngineDrain(b *testing.B) {
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		b.Run(string(kind), func(b *testing.B) {
			e := NewEngineWith(kind)
			b.ReportAllocs()
			const batch = 1024
			for i := 0; i < b.N; i += batch {
				n := batch
				if rem := b.N - i; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					// Deadline spread exercises several wheel levels.
					e.At(e.Now()+Time(1+(j*2654435761)%(1<<18)), func() {})
				}
				e.Run()
			}
		})
	}
}

// fabricDelays is the delay mix of a fabric run on 100G links: credits
// about 6.7 ns ahead, tx-dones 123 ns, deliveries 623 ns (500 ns of wire
// and a full frame), and a pacing gap.
var fabricDelays = [...]Duration{6700, 123_000, 623_000, 623_000, 623_000, 123_000, 6700, 30_000}

// fabricTick reschedules itself one of the fabric delays ahead each time it
// fires, stopping the engine once left reaches zero.
type fabricTick struct {
	e    *Engine
	rng  *rand.Rand
	left int
}

func (f *fabricTick) Fire() {
	if f.left--; f.left == 0 {
		f.e.Stop()
	}
	f.e.AfterHandler(fabricDelays[f.rng.IntN(len(fabricDelays))]+Duration(f.rng.IntN(64)), f)
}

// BenchmarkEngineFabricMix measures schedule+fire at the standing population
// and delay mix of a fabric run: 12k events pending, each rescheduling
// itself one of the fabric's delays ahead, so a 1 ns bucket holds a dozen
// or more. This is the regime the scale workloads run their scheduler in.
func BenchmarkEngineFabricMix(b *testing.B) {
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		b.Run(string(kind), func(b *testing.B) {
			e := NewEngineWith(kind)
			f := &fabricTick{e: e, rng: rand.New(rand.NewPCG(1, 2)), left: 12_000}
			for i := 0; i < 12_000; i++ {
				e.AfterHandler(Duration(f.rng.IntN(623_000)), f)
			}
			e.Run() // one generation of reschedules settles the mix
			f.left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// coldLivePopulation is the standing pending-event population of the cold
// benchmark: 32k live events are a ~2 MB Event slab plus wheel slots — larger
// than L2 on the CI machines — so each fired event is read from memory the
// cache no longer holds. This is the regime the h1024 scale cells run in
// (hundreds of thousands of pending events), which the cache-hot 4096-event
// loop of BenchmarkEngineSchedule never enters.
const coldLivePopulation = 1 << 15

// coldEngine parks the standing population: one event due at each of the next
// coldLivePopulation ticks, so advancing one tick fires exactly one event and
// a replacement schedule keeps the population constant.
func coldEngine(kind SchedulerKind) *Engine {
	e := NewEngineWith(kind)
	for i := 0; i < coldLivePopulation; i++ {
		e.At(e.Now()+Time(i+1), func() {})
	}
	return e
}

// BenchmarkEngineScheduleCold measures schedule+fire against an out-of-cache
// pending set: every op schedules at the horizon and fires the one due event,
// walking the event slab in allocation order instead of reusing a hot slot.
func BenchmarkEngineScheduleCold(b *testing.B) {
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		b.Run(string(kind), func(b *testing.B) {
			e := coldEngine(kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+Time(coldLivePopulation+1), func() {})
				e.RunUntil(e.Now() + 1)
			}
		})
	}
}

// Committed hot-path budgets for the CI smoke gate. The steady state is zero
// allocations; the ns ceilings are deliberately loose (an order of magnitude
// above the recorded numbers in BENCH_micro.json) so the gate catches
// asymptotic regressions — an O(log n) or allocating scheduler sneaking back
// in — without flaking on machine noise. Raising either is a performance
// regression and needs a PR justifying why.
const (
	schedAllocCeiling   = 0.05 // allocs per schedule+fire / schedule+cancel cycle
	schedNsCeiling      = 2000 // ns per schedule+fire cycle
	cancelNsCeiling     = 2000 // ns per schedule+cancel round trip
	coldNsCeiling       = 4000 // ns per schedule+fire cycle against the cold pending set
	schedGateIterations = 20000
)

// gateNsPerOp times schedGateIterations calls of op, best of three passes,
// in ns per op. A fixed op count keeps a gate to milliseconds where
// testing.Benchmark spends about a second, and the best pass discounts a
// preemption or a GC cycle that lands in another.
func gateNsPerOp(op func()) int64 {
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for n := 0; n < schedGateIterations; n++ {
			op()
		}
		best = min(best, time.Since(start))
	}
	return best.Nanoseconds() / schedGateIterations
}

// TestEngineScheduleColdGate holds the out-of-cache schedule+fire path to its
// committed budget: still allocation-free (the slab recycles slots, never
// allocates per event) and within the cold ns ceiling — roughly the hot
// ceiling plus the memory stalls a 2 MB live set costs. A trip here with the
// hot gate green means the layout regressed (events scattered, a pointer
// chase reintroduced), not the algorithm.
func TestEngineScheduleColdGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		e := coldEngine(kind)
		cycle := func() {
			e.At(e.Now()+Time(coldLivePopulation+1), func() {})
			e.RunUntil(e.Now() + 1)
		}
		if avg := testing.AllocsPerRun(1000, cycle); avg > schedAllocCeiling {
			t.Errorf("%s: cold schedule+fire allocates %.3f objects/op, ceiling %v",
				kind, avg, schedAllocCeiling)
		}
		if raceflag.Enabled {
			continue // ns ceilings are meaningless under race instrumentation
		}
		if ns := gateNsPerOp(cycle); ns > coldNsCeiling {
			t.Errorf("%s: cold schedule+fire %d ns/op, ceiling %d", kind, ns, coldNsCeiling)
		}
	}
}

// TestSchedulerHotPathGate is the schedule/cancel regression gate run by
// `make bench-smoke`: both schedulers must stay allocation-free and within
// the committed ns-per-op ceilings on the schedule+fire and schedule+cancel
// hot paths.
func TestSchedulerHotPathGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		e := NewEngineWith(kind)
		var i int
		fireCycle := func() {
			e.At(e.Now()+Time(1+i%4096), func() {})
			i++
			if i%64 == 0 {
				e.Run()
			}
		}
		cancelCycle := func() {
			h := e.At(e.Now()+Time(1+i%4096), func() {})
			i++
			h.Cancel()
		}
		// Warm the free list before measuring.
		for j := 0; j < 200; j++ {
			fireCycle()
		}
		e.Run()
		if avg := testing.AllocsPerRun(1000, fireCycle); avg > schedAllocCeiling {
			t.Errorf("%s: schedule+fire allocates %.3f objects/op, ceiling %v", kind, avg, schedAllocCeiling)
		}
		e.Run()
		if avg := testing.AllocsPerRun(1000, cancelCycle); avg > schedAllocCeiling {
			t.Errorf("%s: schedule+cancel allocates %.3f objects/op, ceiling %v", kind, avg, schedAllocCeiling)
		}
		e.Run()

		if raceflag.Enabled {
			continue // ns ceilings are meaningless under race instrumentation
		}
		if ns := gateNsPerOp(fireCycle); ns > schedNsCeiling {
			t.Errorf("%s: schedule+fire %d ns/op, ceiling %d", kind, ns, schedNsCeiling)
		}
		e.Run()
		if ns := gateNsPerOp(cancelCycle); ns > cancelNsCeiling {
			t.Errorf("%s: schedule+cancel %d ns/op, ceiling %d", kind, ns, cancelNsCeiling)
		}
	}
}

// BenchmarkTxTime measures the serialization-delay helper on the hot path.
func BenchmarkTxTime(b *testing.B) {
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += TxTime(1538, 100*Gbps)
	}
	_ = sink
}
