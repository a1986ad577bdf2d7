package rdbase

import (
	"testing"
	"unsafe"
)

// TestFlowTableGrowth fills a table past three chunks. Every pointer Put
// returned must stay the flow's value (the slab never moves a value), Keys
// must list the flows in insertion order, and the carve must never exceed
// the whole 32-slot chunks the table's flows need.
func TestFlowTableGrowth(t *testing.T) {
	var tbl FlowTable[benchSender]
	const n = 3*FlowChunkSize + 5
	ptrs := make([]*benchSender, n)
	for i := range ptrs {
		id := uint64(1000 + 7*i)
		v, added := tbl.Put(id)
		if !added {
			t.Fatalf("flow %d not added", id)
		}
		v.id = id
		ptrs[i] = v
		whole := (i + FlowChunkSize) / FlowChunkSize * FlowChunkSize
		if carve := tbl.vals.Cap(); carve > whole {
			t.Fatalf("%d flows carved %d slots, more than %d", i+1, carve, whole)
		}
	}
	keys := tbl.Keys()
	if len(keys) != n {
		t.Fatalf("Keys lists %d flows, want %d", len(keys), n)
	}
	for i, v := range ptrs {
		id := uint64(1000 + 7*i)
		if tbl.Get(id) != v || keys[i] != id || v.id != id {
			t.Fatalf("flow %d: Get %p, Keys[%d] %d, Put %p holding id %d", id, tbl.Get(id), i, keys[i], v, v.id)
		}
	}
}

// TestRTOSize pins the RTO every receiver holds at 72 bytes: its timer
// (32), period, last touch, the stopped flag and the Expire view. It reads
// the clock through the timer, so it keeps no engine of its own.
func TestRTOSize(t *testing.T) {
	if got := unsafe.Sizeof(RTO{}); got != 72 {
		t.Fatalf("rdbase.RTO is %d bytes, want 72", got)
	}
}
