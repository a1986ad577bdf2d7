package netem

import "fmt"

// PoolObserver sees every packet a PacketPool hands out or takes back. The
// audit layer implements it to keep pointer-keyed packet state coherent
// across recycling and to report double-Put as a structured violation.
type PoolObserver interface {
	// PoolGet runs after the packet has been reset, before the caller sees
	// it. fresh is true when the object was newly allocated rather than
	// recycled.
	PoolGet(p *Packet, fresh bool)

	// PoolPut runs before the packet enters the free-list. firstPut is false
	// when the packet was already pooled — a double-Put bug.
	PoolPut(p *Packet, firstPut bool)
}

// PacketPool recycles Packet objects so the steady-state hot path allocates
// nothing per packet. One pool serves one simulation run (pools, like the
// engine, are single-goroutine; the parallel experiment executor gives every
// run its own).
//
// Ownership rule: whoever terminates a packet releases it. Concretely:
//   - a Port that fails to Enqueue (queue drop, including trim-fail and
//     credit overflow) Puts the packet;
//   - a Host Puts the packet after its Endpoint's Receive returns — the
//     endpoint boundary is the end of the packet's life, and endpoints must
//     not retain the packet or alias its SegList past Receive;
//   - NDP trimming mutates the packet in place (the discarded payload is not
//     a separate object), so trimming itself releases nothing.
//
// On recycle the SegList backing array is kept but truncated; because
// receivers copy SegList rather than alias it, reuse cannot leak stale
// segment data across packets.
//
// Storage is a chunked slab arena: fresh packets are carved sequentially
// from non-moving chunks, so packets traversing a port chain are contiguous
// in allocation order and the steady-state working set packs into a few
// cache-resident chunks. The free-list still holds pointers — packets move
// through the fabric by pointer — but every pointer aims into the slab, and
// each slab packet knows its slot (Packet.PoolSlot) so observers can key
// per-packet state by dense index. A disabled pool allocates individually
// instead, preserving the old release-to-GC behavior for pool-off runs.
type PacketPool struct {
	free     []*Packet
	chunks   []*[PacketChunkSize]Packet
	carved   uint32 // slots issued from the slab
	disabled bool
	obs      PoolObserver

	allocs     uint64 // Packet objects created by Get
	gets       uint64 // packets handed out
	puts       uint64 // packets returned (first Put only)
	doublePuts uint64 // Put calls on packets already in the pool
}

// Packet slab geometry: 512 packets per chunk — 56 KiB of 112-byte packets,
// sized so one chunk covers the in-flight population of a loaded port chain.
const (
	packetChunkBits = 9

	// PacketChunkSize is the number of packets per pool slab chunk. Exported
	// so the scale ledger can stamp the slab geometry a measurement ran under.
	PacketChunkSize = 1 << packetChunkBits

	packetChunkMask = PacketChunkSize - 1
)

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	Allocated  uint64 // Packet objects ever created by Get
	Gets       uint64 // packets handed out
	Puts       uint64 // packets returned
	InPool     uint64 // packets sitting in the free-list now
	Live       uint64 // packets handed out and not yet returned
	DoublePuts uint64 // rejected duplicate Puts (each one is a bug)
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Disable makes Get always allocate individually and Put always discard
// (while still counting), so a run can be replayed without recycling to
// prove pooling does not change results. The free-list is dropped; slab
// chunks stay resident only if packets were already carved from them (a
// live packet must keep its storage).
func (pp *PacketPool) Disable() {
	pp.disabled = true
	pp.free = nil
}

// Disabled reports whether recycling is off.
func (pp *PacketPool) Disabled() bool { return pp != nil && pp.disabled }

// SetObserver installs the observer (at most one; nil clears it).
func (pp *PacketPool) SetObserver(o PoolObserver) { pp.obs = o }

// Get returns a zeroed packet, recycled if possible. A nil pool is valid and
// always allocates, so hand-built test fixtures work without a pool.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	pp.gets++
	var p *Packet
	fresh := true
	if n := len(pp.free); n > 0 {
		p = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		fresh = false
		// Reset every field but keep the SegList backing array (the
		// copy-never-alias rule means no one else can still see it) and the
		// slot, which names the storage rather than the packet's current life.
		segs := p.SegList[:0]
		*p = Packet{SegList: segs, slot: p.slot}
	} else if pp.disabled {
		// No recycling: individual allocations keep pool-off runs GC-bounded
		// instead of retaining every packet ever issued in the slab.
		p = &Packet{}
		pp.allocs++
	} else {
		idx := pp.carved
		if int(idx>>packetChunkBits) == len(pp.chunks) {
			pp.chunks = append(pp.chunks, new([PacketChunkSize]Packet))
		}
		pp.carved++
		p = &pp.chunks[idx>>packetChunkBits][idx&packetChunkMask]
		p.slot = idx + 1
		pp.allocs++
	}
	if pp.obs != nil {
		pp.obs.PoolGet(p, fresh)
	}
	return p
}

// Put returns a terminated packet to the pool. Nil pools, nil packets and
// duplicate Puts are safe: the duplicate is rejected (and counted) rather
// than corrupting the free-list.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	if p.pooled {
		pp.doublePuts++
		if pp.obs != nil {
			pp.obs.PoolPut(p, false)
		}
		return
	}
	if pp.obs != nil {
		pp.obs.PoolPut(p, true)
	}
	pp.puts++
	if pp.disabled {
		return
	}
	p.pooled = true
	p.next = nil
	pp.free = append(pp.free, p)
}

// Live returns the number of packets handed out and not yet returned. At
// drain time (simulation complete, queues empty) it must be zero.
func (pp *PacketPool) Live() uint64 {
	if pp == nil {
		return 0
	}
	return pp.gets - pp.puts
}

// Stats snapshots the counters.
func (pp *PacketPool) Stats() PoolStats {
	if pp == nil {
		return PoolStats{}
	}
	return PoolStats{
		Allocated:  pp.allocs,
		Gets:       pp.gets,
		Puts:       pp.puts,
		InPool:     uint64(len(pp.free)),
		Live:       pp.gets - pp.puts,
		DoublePuts: pp.doublePuts,
	}
}

// CheckCoherence verifies the pool's conservation identity — every object
// the pool ever created is either live or in the free-list (live + pooled =
// allocated, adjusted for foreign packets Put into the pool) — and that no
// double-Put occurred. The audit layer calls it at drain time.
func (pp *PacketPool) CheckCoherence() error {
	if pp == nil {
		return nil
	}
	if err := pp.CheckCoherenceShared(); err != nil {
		return err
	}
	if pp.gets < pp.puts {
		return fmt.Errorf("netem: pool returned %d packets but only handed out %d", pp.puts, pp.gets)
	}
	return nil
}

// CheckCoherenceShared verifies the invariants that survive cross-pool
// packet migration. A sharded run Puts each packet into the pool of the
// shard that terminates it, so a single pool may legitimately return more
// packets than it handed out (or fewer); what must still hold per pool is
// that no packet was Put twice and that the free-list contains exactly the
// packets Put and not yet re-issued. The hand-out/return balance is only
// meaningful summed across the exchanging pools, which the sharded audit
// checks globally.
func (pp *PacketPool) CheckCoherenceShared() error {
	if pp == nil {
		return nil
	}
	if pp.doublePuts > 0 {
		return fmt.Errorf("netem: pool saw %d double-Puts", pp.doublePuts)
	}
	if !pp.disabled {
		// reuses = gets - allocs; the free-list must hold exactly the
		// packets Put and not yet re-issued.
		reuses := pp.gets - pp.allocs
		if want := pp.puts - reuses; uint64(len(pp.free)) != want {
			return fmt.Errorf("netem: pool free-list holds %d packets, want %d (allocs=%d gets=%d puts=%d)",
				len(pp.free), want, pp.allocs, pp.gets, pp.puts)
		}
	}
	return nil
}
