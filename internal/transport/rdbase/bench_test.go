package rdbase

import (
	"math"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/raceflag"
)

// benchSender stands in for a packed per-flow sender record: 96 bytes, the
// ballpark of the ExpressPass sender state the real tables hold.
type benchSender struct {
	id      uint64
	next    int64
	credits int64
	sent    int32
	acked   int32
	_       [56]byte
}

// benchTableFlows sizes the benchmark table like an h1024 scale cell
// (1024 hosts x 100 flows/host).
const benchTableFlows = 1 << 17

// benchTable builds a table of benchTableFlows senders keyed by realistic
// sequential flow IDs.
func benchTable() *FlowTable[benchSender] {
	var t FlowTable[benchSender]
	for i := 0; i < benchTableFlows; i++ {
		v, _ := t.Put(uint64(i) + 1)
		v.id = uint64(i) + 1
	}
	return &t
}

// BenchmarkFlowTableLookup measures Get against a full-size table in
// pseudo-random key order, so neither the probe sequence nor the value slab
// stays cache-resident — the access pattern of packet receive on a large
// fabric, where consecutive packets belong to unrelated flows.
func BenchmarkFlowTableLookup(b *testing.B) {
	t := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		id := uint64(i)*2654435761%benchTableFlows + 1
		sink += t.Get(id).id
	}
	_ = sink
}

// Committed flow-table budgets for the CI smoke gate: lookups are
// allocation-free and bounded well under a map lookup plus pointer chase —
// loose enough for machine noise, tight enough that a return to
// map-of-pointers state (the pre-optimization layout) trips it.
const (
	flowLookupNsCeiling    = 1000
	flowLookupAllocCeiling = 0.05
	flowGateIterations     = 20000
)

// TestFlowTableLookupGate is the flow-table regression gate run by
// `make bench-smoke`.
func TestFlowTableLookupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	tbl := benchTable()
	var i int
	var sink uint64
	lookup := func() {
		id := uint64(i)*2654435761%benchTableFlows + 1
		sink += tbl.Get(id).id
		i++
	}
	if avg := testing.AllocsPerRun(1000, lookup); avg > flowLookupAllocCeiling {
		t.Errorf("lookup allocates %.3f objects/op, ceiling %v", avg, flowLookupAllocCeiling)
	}
	if raceflag.Enabled {
		return // ns ceilings are meaningless under race instrumentation
	}
	// Time flowGateIterations lookups, best of three passes: a fixed op count
	// costs milliseconds, and the best pass discounts a preemption or a GC
	// cycle that lands in another.
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for n := 0; n < flowGateIterations; n++ {
			lookup()
		}
		best = min(best, time.Since(start))
	}
	if ns := best.Nanoseconds() / flowGateIterations; ns > flowLookupNsCeiling {
		t.Errorf("lookup %d ns/op, ceiling %d", ns, flowLookupNsCeiling)
	}
	_ = sink
}
