package netem

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins the layout packet.go describes and the slab chunk is
// sized by: the fields pack with no interior padding into 104 bytes.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 104 {
		t.Fatalf("Packet is %d bytes, want 104", n)
	}
}

func TestPoolRecyclesAndResets(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	p.Type, p.Flow, p.Seq, p.WireSize, p.hops = Data, 7, 42, 1538, 3
	p.SegList = append(p.SegList, 1, 2, 3)
	pp.Put(p)
	q := pp.Get()
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if q.Type != 0 || q.Flow != 0 || q.Seq != 0 || q.WireSize != 0 || q.pooled || q.hops != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
	if len(q.SegList) != 0 || cap(q.SegList) < 3 {
		t.Fatalf("SegList should be truncated but keep capacity: len=%d cap=%d",
			len(q.SegList), cap(q.SegList))
	}
	st := pp.Stats()
	if st.Allocated != 1 || st.Gets != 2 || st.Puts != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolDoublePutRejected(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	pp.Put(p)
	pp.Put(p) // must not corrupt the free-list
	if st := pp.Stats(); st.DoublePuts != 1 || st.InPool != 1 {
		t.Fatalf("stats = %+v, want 1 double-Put and 1 pooled packet", st)
	}
	if err := pp.CheckCoherence(); err == nil {
		t.Fatal("CheckCoherence should report the double-Put")
	}
	if q := pp.Get(); q != p {
		t.Fatal("free-list corrupted by the duplicate Put")
	}
	if q := pp.Get(); q == p {
		t.Fatal("the same packet was handed out twice")
	}
}

func TestPoolNilSafety(t *testing.T) {
	var pp *PacketPool
	p := pp.Get()
	if p == nil {
		t.Fatal("nil pool must still produce packets")
	}
	pp.Put(p) // no-op
	if pp.Live() != 0 || pp.Disabled() {
		t.Fatal("nil pool accessors should be inert")
	}
	if err := pp.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolDisable(t *testing.T) {
	pp := NewPacketPool()
	pp.Put(pp.Get())
	pp.Disable()
	p := pp.Get()
	pp.Put(p)
	if q := pp.Get(); q == p {
		t.Fatal("disabled pool recycled a packet")
	}
	if err := pp.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	st := pp.Stats()
	if st.InPool != 0 || st.Allocated != 3 {
		t.Fatalf("stats = %+v, want empty free-list and 3 allocations", st)
	}
}

func TestPoolCoherence(t *testing.T) {
	pp := NewPacketPool()
	var live []*Packet
	for i := 0; i < 10; i++ {
		live = append(live, pp.Get())
	}
	for _, p := range live[:6] {
		pp.Put(p)
	}
	pp.Get() // recycle one
	if err := pp.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the free-list behind the pool's back: the identity must break.
	pp.free = pp.free[:len(pp.free)-1]
	if err := pp.CheckCoherence(); err == nil {
		t.Fatal("free-list corruption not detected")
	}
}

type recordingObserver struct {
	gets, fresh, puts, dups int
}

func (o *recordingObserver) PoolGet(_ *Packet, fresh bool) {
	o.gets++
	if fresh {
		o.fresh++
	}
}

func (o *recordingObserver) PoolPut(_ *Packet, firstPut bool) {
	if firstPut {
		o.puts++
	} else {
		o.dups++
	}
}

func TestPoolObserverSeesEveryTransfer(t *testing.T) {
	pp := NewPacketPool()
	obs := &recordingObserver{}
	pp.SetObserver(obs)
	p := pp.Get()
	pp.Put(p)
	pp.Put(p) // duplicate: p is still in the free-list
	q := pp.Get()
	pp.Put(q)
	if obs.gets != 2 || obs.fresh != 1 || obs.puts != 2 || obs.dups != 1 {
		t.Fatalf("observer saw %+v", obs)
	}
}

// TestPoolSlotSlabSemantics pins the dense-index contract of the packet slab:
// slab-carved packets report a stable PoolSlot across their whole recycling
// life (the slot names the storage, not the packet's current use), slots are
// carved densely from zero, and packets outside the slab — nil-pool fixtures
// and disabled-pool individual allocations — report -1 so slot-keyed state
// arrays know to fall back.
func TestPoolSlotSlabSemantics(t *testing.T) {
	pp := NewPacketPool()
	n := 2*PacketChunkSize + 3 // force growth past a chunk boundary
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = pp.Get()
		if got := pkts[i].PoolSlot(); got != int32(i) {
			t.Fatalf("packet %d carved with slot %d, want dense slots from zero", i, got)
		}
	}
	// Recycling keeps the slot: the free list is LIFO, so the last Put comes
	// back first, still naming its original storage.
	last := pkts[n-1]
	pp.Put(last)
	if got := pp.Get(); got != last || got.PoolSlot() != int32(n-1) {
		t.Fatalf("recycled packet %p slot %d, want %p slot %d", got, got.PoolSlot(), last, n-1)
	}

	if got := (*PacketPool)(nil).Get().PoolSlot(); got != -1 {
		t.Errorf("nil-pool packet reports slot %d, want -1", got)
	}
	off := NewPacketPool()
	off.Disable()
	if got := off.Get().PoolSlot(); got != -1 {
		t.Errorf("disabled-pool packet reports slot %d, want -1", got)
	}
}

// TestPoolCarveFollowsLivePackets holds every packet it takes, from 1 to
// three chunks and one packet, so the slab must carve for each. The carve
// (issued slots plus the rest of the current run) never exceeds whole
// chunks for the packets live, so a run that never holds a chunk's worth
// in flight never carves one, and no run carves more than the one-chunk
// layout did. Slots stay dense, and every packet taken earlier keeps its
// own storage and fields while later runs are carved.
func TestPoolCarveFollowsLivePackets(t *testing.T) {
	pp := NewPacketPool()
	const n = 3*PacketChunkSize + 1
	pkts := make([]*Packet, 0, n)
	for i := 0; i < n; i++ {
		p := pp.Get()
		if p.PoolSlot() != int32(i) {
			t.Fatalf("packet %d carved with slot %d, want dense slots", i, p.PoolSlot())
		}
		p.Flow, p.Seq = uint64(i), int64(i)
		pkts = append(pkts, p)
		live := i + 1
		whole := (live + PacketChunkSize - 1) / PacketChunkSize * PacketChunkSize
		if carve := int(pp.carved) + len(pp.run); carve > whole {
			t.Fatalf("%d live packets carved %d slots, more than %d", live, carve, whole)
		}
	}
	seen := make(map[*Packet]bool, n)
	for i, p := range pkts {
		if seen[p] || p.Flow != uint64(i) || p.Seq != int64(i) || p.PoolSlot() != int32(i) {
			t.Fatalf("packet %d shares storage or lost its fields: %v slot %d", i, p, p.PoolSlot())
		}
		seen[p] = true
	}
}
