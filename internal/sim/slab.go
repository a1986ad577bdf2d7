package sim

// Event storage: a chunked, non-moving slab arena. Events are addressed by
// dense uint32 indices instead of pointers, so the schedulers' list links,
// the heap's positions and every Handle are 4-byte indices into contiguous
// chunks — the hot pending set packs into a few cache-resident pages
// instead of being scattered across the GC heap.
//
// Chunks never move and never shrink: an index issued once stays valid for
// the engine's lifetime, and the generation counter on each slot extends the
// PR 3 handle discipline — a recycled slot bumps its generation, so every
// stale Handle (and any stale index a test or tool holds) is detectable.

const (
	// eventChunkBits sizes a chunk at 256 events — 16 KiB of 64-byte
	// events and 2 KiB of their links. A short run carves a few hundred
	// slots in all, so a larger chunk would be mostly untouched memory; a
	// long run pays one chunk allocation per 256 slots of its peak
	// population, and at() stays one shift and one mask whatever the size.
	eventChunkBits = 8

	// EventChunkSize is the number of events per slab chunk. Exported so the
	// scale ledger can stamp the slab geometry a measurement ran under.
	EventChunkSize = 1 << eventChunkBits

	eventChunkMask = EventChunkSize - 1
)

// nilIdx is the null event index: the end of every intrusive list and the
// "no event" return of popDue. Index 0 is a valid slot, so the sentinel is
// the all-ones pattern.
const nilIdx = ^uint32(0)

// eventSlab owns every Event an engine ever issues. Slots are carved
// sequentially from the newest chunk; resolved events thread onto a LIFO
// free list through their links, so steady-state churn reuses the hottest
// slots first and carving stops once the pool warms up.
//
// Each slot's links live beside its event, in the chunk's array of link
// pairs rather than in the Event: walking a list reads 8 bytes a member
// from a dense array instead of a cache line per member, and once a
// bucket's members are known their events can be loaded together, not one
// pointer chase after another.
type eventSlab struct {
	chunks []*eventChunk

	freeHead uint32 // LIFO free list threaded through the links' next
	freeLen  uint32
	carved   uint64 // slots ever issued; the engine's alloc counter
}

// eventChunk is one allocation of the slab: EventChunkSize events and,
// after them, their links.
type eventChunk struct {
	ev    [EventChunkSize]Event
	links [EventChunkSize]link
}

// link is a slot's place in one list: a scheduler's bucket or slot list,
// or the free list. next and prev are slab indices, nilIdx at either end.
type link struct{ next, prev uint32 }

// at returns the event at index i. The two-level lookup compiles to two
// dependent loads; no bounds check survives on the inner index.
func (s *eventSlab) at(i uint32) *Event {
	return &s.chunks[i>>eventChunkBits].ev[i&eventChunkMask]
}

// link returns the links of slot i.
func (s *eventSlab) link(i uint32) *link {
	return &s.chunks[i>>eventChunkBits].links[i&eventChunkMask]
}

// alloc returns a free slot: the head of the free list when one is
// available, otherwise the next carved slot (growing by one chunk when the
// current one is exhausted). Fresh slots come up with clean link state;
// recycled slots were cleaned by the unlink that preceded their release.
func (s *eventSlab) alloc() (*Event, uint32) {
	if s.freeHead != nilIdx {
		idx := s.freeHead
		l := s.link(idx)
		s.freeHead = l.next
		s.freeLen--
		l.next = nilIdx
		return s.at(idx), idx
	}
	idx := uint32(s.carved)
	if int(idx>>eventChunkBits) == len(s.chunks) {
		s.chunks = append(s.chunks, new(eventChunk))
	}
	s.carved++
	ev := s.at(idx)
	ev.index = -1
	ev.in = listNone
	*s.link(idx) = link{nilIdx, nilIdx}
	return ev, idx
}

// free threads a resolved slot back onto the free list. The caller has
// already cleared the handler reference; the slot's generation is NOT
// bumped here — it bumps on reissue, so stale handles keep reading the
// event's final state truthfully until the slot is reused.
func (s *eventSlab) free(idx uint32) {
	*s.link(idx) = link{s.freeHead, nilIdx}
	s.freeHead = idx
	s.freeLen++
}
