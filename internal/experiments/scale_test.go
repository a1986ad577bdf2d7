package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport/rdbase"
)

// ledgerPath is the committed scale ledger at the repo root, relative to this
// package's test working directory.
const ledgerPath = "../../BENCH_scale.json"

// TestScaleSmoke is the CI tier of the scale sweep: the smallest fabric of
// the grid, both load points, gated against the committed BENCH_scale.json
// baseline. The gates are deliberately loose — events/sec may legitimately
// wobble 2x across machines and CI noise — but a real capacity regression
// (events/sec collapse, heap or scheduler-pressure blow-up) trips them.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke runs full simulations; skipped in -short")
	}
	led, err := LoadScaleLedger(ledgerPath)
	if err != nil {
		t.Fatalf("scale ledger missing or unreadable (regenerate with `make scale`): %v", err)
	}
	cfg := DefaultConfig()
	for _, load := range scaleLoads {
		pt := MeasureScale(cfg, 8, load)
		t.Logf("%s: %d events in %.2fs (%.3g ev/s), peak pending %d, heap peak %.1f MB, %.0f B/flow",
			pt.Key(), pt.Events, pt.WallSeconds, pt.EventsPerSec,
			pt.PeakPending, float64(pt.HeapPeakBytes)/(1<<20), pt.StateBytesPerFlow)
		if pt.Completed != pt.Flows {
			t.Errorf("%s: %d/%d flows completed", pt.Key(), pt.Completed, pt.Flows)
		}
		if !pt.AuditClean {
			t.Errorf("%s: audit violations", pt.Key())
		}
		if pt.StateFlows != pt.Flows || pt.StateSenders != pt.Flows {
			t.Errorf("%s: footprint reports %d flows / %d senders, want %d",
				pt.Key(), pt.StateFlows, pt.StateSenders, pt.Flows)
		}
		base, ok := led.Baseline[pt.Key()]
		if !ok {
			t.Errorf("%s: no baseline in %s", pt.Key(), ledgerPath)
			continue
		}
		// Simulation-deterministic metrics gate unconditionally; wall-clock
		// and heap gates are skipped under the race detector, whose 10-20x
		// slowdown and shadow memory would trip them on a healthy build.
		// Behavior changes legitimately move the event count (golden digests
		// own exact behavior); a blow-up in events per flow is a scale bug.
		if float64(pt.Events) > 1.5*float64(base.Events) {
			t.Errorf("%s: %d events exceeds 1.5x baseline %d — event efficiency regressed",
				pt.Key(), pt.Events, base.Events)
		}
		if float64(pt.PeakPending) > 2*float64(base.PeakPending) {
			t.Errorf("%s: peak pending %d exceeds 2x baseline %d",
				pt.Key(), pt.PeakPending, base.PeakPending)
		}
		if raceEnabled {
			t.Logf("%s: race detector on; skipping events/sec and heap gates", pt.Key())
			continue
		}
		if pt.EventsPerSec < base.EventsPerSec/2.5 {
			t.Errorf("%s: events/sec collapsed: %.3g, baseline %.3g (gate: ≥ baseline/2.5)",
				pt.Key(), pt.EventsPerSec, base.EventsPerSec)
		}
		if float64(pt.HeapPeakBytes) > 2*float64(base.HeapPeakBytes) {
			t.Errorf("%s: heap peak %.1f MB exceeds 2x baseline %.1f MB",
				pt.Key(), float64(pt.HeapPeakBytes)/(1<<20), float64(base.HeapPeakBytes)/(1<<20))
		}
		if pt.StateBytesPerFlow > 2*base.StateBytesPerFlow {
			t.Errorf("%s: per-flow state %.0f B exceeds 2x baseline %.0f B",
				pt.Key(), pt.StateBytesPerFlow, base.StateBytesPerFlow)
		}
	}
}

// TestScaleSmokeSharded is the sharded cell of the CI scale smoke: the
// smallest fabric of the grid run at Shards=2, checking that the sharded path
// survives a real sweep cell end to end — full completion, clean global audit,
// the execution-shape fields stamped, and no event-count blow-up against the
// sequential baseline of the same (hosts, load) cell.
func TestScaleSmokeSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke runs full simulations; skipped in -short")
	}
	led, err := LoadScaleLedger(ledgerPath)
	if err != nil {
		t.Fatalf("scale ledger missing or unreadable (regenerate with `make scale`): %v", err)
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	pt := MeasureScale(cfg, 8, 0.4)
	t.Logf("%s: %d events in %.2fs (%.3g ev/s), shards %d, GOMAXPROCS %d",
		pt.Key(), pt.Events, pt.WallSeconds, pt.EventsPerSec, pt.Shards, pt.GOMAXPROCS)
	if pt.Shards != 2 {
		t.Errorf("shards = %d, want 2 (the 8-wide leafspine partitions in half)", pt.Shards)
	}
	if pt.GOMAXPROCS < 1 {
		t.Errorf("GOMAXPROCS = %d not stamped", pt.GOMAXPROCS)
	}
	if pt.Key() != "h64/l0.4/s2" {
		t.Errorf("ledger key = %q, want the sharded /s2 suffix", pt.Key())
	}
	if pt.Completed != pt.Flows {
		t.Errorf("%d/%d flows completed", pt.Completed, pt.Flows)
	}
	if !pt.AuditClean {
		t.Error("audit violations on the sharded cell")
	}
	// Sender state lives on exactly one shard, so the summed sender count
	// matches the flow count; flow-table entries are pre-registered on both
	// endpoint shards of a cross-shard flow, so their sum lands between one
	// and two entries per flow.
	if pt.StateSenders != pt.Flows {
		t.Errorf("footprint over shards reports %d senders, want %d", pt.StateSenders, pt.Flows)
	}
	if pt.StateFlows < pt.Flows || pt.StateFlows > 2*pt.Flows {
		t.Errorf("footprint over shards reports %d flow entries, want within [%d, %d]",
			pt.StateFlows, pt.Flows, 2*pt.Flows)
	}
	// The sharded run fires the same simulation plus cross-shard handoff and
	// barrier events; compare against the sequential baseline of the same
	// cell, not a sharded one, so the bound also caps the sharding overhead.
	if base, ok := led.Baseline["h64/l0.4"]; ok {
		if float64(pt.Events) > 1.5*float64(base.Events) {
			t.Errorf("%d events exceeds 1.5x the sequential baseline %d", pt.Events, base.Events)
		}
	} else {
		t.Errorf("no sequential h64/l0.4 baseline in %s", ledgerPath)
	}
}

// stateBytesPerFlowCeiling is the committed per-flow state budget for the
// largest fabric of the grid: 2.5 KB. The packed-table layout (flow tables
// over slab chunks, bitmap segment flags) landed h1024 well under it from the
// ~4.1 KB of the map-of-pointers layout; creeping back over is a memory
// regression and needs a PR justifying why.
const stateBytesPerFlowCeiling = 2560

// TestScaleLedgerStateCeiling gates the committed ledger itself: the h1024
// cells CI cannot afford to re-run must have been measured under the per-flow
// state ceiling, and every current cell must carry the slab-geometry stamp of
// the compiled constants — a ledger regenerated under different chunk sizes
// without being recommitted alongside them is not comparable.
//
// Sharded (/sN) cells are exempt from the per-flow ceiling: each shard owns a
// full engine slab, packet pool and port array, so their retained heap
// measures the sharding overhead the /sN keys exist to track, not the
// per-flow layout this ceiling budgets.
func TestScaleLedgerStateCeiling(t *testing.T) {
	led, err := LoadScaleLedger(ledgerPath)
	if err != nil {
		t.Fatalf("scale ledger missing or unreadable (regenerate with `make scale`): %v", err)
	}
	found := 0
	for key, pt := range led.Current {
		if pt.Hosts != 1024 || pt.Shards > 1 {
			continue
		}
		found++
		if pt.StateBytesPerFlow <= 0 {
			t.Errorf("%s: no state_bytes_per_flow recorded", key)
		}
		if pt.StateBytesPerFlow > stateBytesPerFlowCeiling {
			t.Errorf("%s: %.0f B/flow exceeds the %d B ceiling",
				key, pt.StateBytesPerFlow, stateBytesPerFlowCeiling)
		}
	}
	if found == 0 {
		t.Errorf("no h1024 cells in %s current section; run `make scale` on the full grid", ledgerPath)
	}
	for key, pt := range led.Current {
		if pt.EventChunk != sim.EventChunkSize || pt.PacketChunk != netem.PacketChunkSize ||
			pt.FlowChunk != rdbase.FlowChunkSize {
			t.Errorf("%s: measured under slab geometry event=%d packet=%d flow=%d, compiled constants are %d/%d/%d — re-run `make scale`",
				key, pt.EventChunk, pt.PacketChunk, pt.FlowChunk,
				sim.EventChunkSize, netem.PacketChunkSize, rdbase.FlowChunkSize)
		}
	}
}

// TestScaleLedgerRoundTrip pins the ledger file mechanics: the first write
// seeds the baseline, later writes merge into current by cell key while
// preserving the frozen baseline and note.
func TestScaleLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	first := []ScalePoint{{Topo: "clos:8/8,hosts=8", Hosts: 64, Load: 0.4, EventsPerSec: 1e6}}
	if err := WriteScaleLedger(path, "test note", first); err != nil {
		t.Fatal(err)
	}
	second := []ScalePoint{{Topo: "clos:8/8,hosts=8", Hosts: 64, Load: 0.4, EventsPerSec: 2e6}}
	if err := WriteScaleLedger(path, "other note", second); err != nil {
		t.Fatal(err)
	}
	led, err := LoadScaleLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	key := first[0].Key()
	if key != "h64/l0.4" {
		t.Fatalf("key = %q, want h64/l0.4", key)
	}
	if led.Note != "test note" {
		t.Errorf("note overwritten: %q", led.Note)
	}
	if got := led.Baseline[key].EventsPerSec; got != 1e6 {
		t.Errorf("baseline not preserved: %g, want 1e6", got)
	}
	if got := led.Current[key].EventsPerSec; got != 2e6 {
		t.Errorf("current not updated: %g, want 2e6", got)
	}

	// A sharded measurement of the same cell merges alongside the sequential
	// one instead of erasing it.
	sharded := []ScalePoint{{Topo: "clos:8/8,hosts=8", Hosts: 64, Load: 0.4, Shards: 2, EventsPerSec: 3e6}}
	if err := WriteScaleLedger(path, "", sharded); err != nil {
		t.Fatal(err)
	}
	led, err = LoadScaleLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := led.Current[key].EventsPerSec; got != 2e6 {
		t.Errorf("sequential cell erased by sharded write: %g, want 2e6", got)
	}
	if got := led.Current["h64/l0.4/s2"].EventsPerSec; got != 3e6 {
		t.Errorf("sharded cell not merged: %g, want 3e6", got)
	}
	if _, err := LoadScaleLedger(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing ledger: err = %v, want IsNotExist", err)
	}

	// A ledger that exists but does not parse is an error, and the write
	// leaves its bytes alone rather than re-seeding the baseline.
	corrupt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt = corrupt[:len(corrupt)/2]
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteScaleLedger(path, "", second); err == nil {
		t.Error("a truncated ledger was overwritten without an error")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, corrupt) {
		t.Errorf("a failed write changed the ledger file (read err %v)", err)
	}
}
