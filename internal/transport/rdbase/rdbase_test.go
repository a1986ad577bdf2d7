package rdbase

import "testing"

// TestFlowTableGrowth fills a table past three chunks. Every pointer Put
// returned must stay the flow's value (the slab never moves a value), At
// must walk the values in insertion order, and the carve must never exceed
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
	for i, v := range ptrs {
		id := uint64(1000 + 7*i)
		if tbl.Get(id) != v || tbl.At(i) != v || v.id != id {
			t.Fatalf("flow %d: Get %p, At(%d) %p, Put %p holding id %d", id, tbl.Get(id), i, tbl.At(i), v, v.id)
		}
	}
}
