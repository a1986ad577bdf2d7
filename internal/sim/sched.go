package sim

import "fmt"

// SchedulerKind selects the event-queue implementation backing an Engine.
// Both schedulers fire events in identical (time, schedAt, seq) order — the
// golden digest test and FuzzSchedulerEquivalence prove it. Production runs
// use the wheel; the heap is kept as the reference implementation those
// tests compare it against.
type SchedulerKind string

const (
	// SchedWheel is the two-tier wheel: a ring of 1 ns buckets covering the
	// next 4.19 µs in front of a hierarchical timing wheel for everything
	// later. O(1) schedule, O(1) true removal on cancel, dispatch by sorting
	// a bucket's few events. The default.
	SchedWheel SchedulerKind = "wheel"

	// SchedHeap is the container/heap-equivalent reference implementation:
	// O(log n) schedule, removal and dispatch.
	SchedHeap SchedulerKind = "heap"
)

// DefaultScheduler is what NewEngine uses.
const DefaultScheduler = SchedWheel

// SchedStats is a snapshot of an event queue's occupancy: how many events
// are pending now and the high-water mark over the engine's lifetime. The
// peak is maintained inline by the schedulers (a compare and a conditional
// store on the schedule path), so reading it costs nothing during a run; the
// scale sweep reports it per (hosts, load) point.
type SchedStats struct {
	Pending     int // events waiting to fire right now
	PeakPending int // largest Pending ever observed
	// PeakOverflow is always zero on both schedulers: the wheel places every
	// deadline in a slot. It stays because the benchmark module reads it.
	PeakOverflow int
	// FarPlaced counts the schedules due past the near tier's window, which
	// wait in the far tier until the window reaches them; the heap reports
	// zero. It is counted on the far path only, and pinned as a share of
	// the events fired (TestFarTierShare).
	FarPlaced int
}

// scheduler is the event-queue contract the Engine drives. Exactly the events
// that were scheduled and not removed are pending; Cancel is a true removal,
// so a scheduler never holds fired or canceled events. Events travel as
// (pointer, slab index) pairs: the pointer spares re-derefencing a slot the
// caller already has in hand, the index is what the queues store.
type scheduler interface {
	// schedule inserts a pending event. The engine guarantees the event has
	// not passed: ev.time is not in the past, and an event at the current
	// instant is stamped after the one being dispatched. Seqs are unique but
	// need not grow: an event holding a reserved stamp (Engine.AtStamped)
	// enters the queue after events with larger seqs, possibly at the
	// current instant, ahead of pending events stamped later.
	schedule(ev *Event, idx uint32)

	// remove deletes a pending event before it fires.
	remove(ev *Event, idx uint32)

	// popDue removes and returns the slab index of the earliest pending
	// event by (time, schedAt, seq) if its time is ≤ limit, or nilIdx
	// (leaving the queue untouched in any observable way) when the queue is
	// empty or the earliest event is later.
	popDue(limit Time) uint32

	// next returns the earliest pending deadline without mutating the queue,
	// or false when nothing is pending. This is what the sharded runner uses
	// to compute the global lower bound of the next synchronization window.
	next() (Time, bool)

	// size is the number of pending events.
	size() int

	// stats snapshots the queue's occupancy and lifetime high-water marks.
	stats() SchedStats

	// check validates the implementation's structural invariants: membership
	// bookkeeping, ordering, and that no pending event is behind now.
	check(now Time) error
}

// List identifiers, stored in Event.in. The far tier's 704 slot lists are
// named level<<wheelBits | slot; a near-tier bucket member carries listNear
// (its deadline names the bucket), and a member of the near tier's live
// dispatch batch carries listBatch. listNone marks an event resident in no
// list (free, or in the heap).
const (
	numSlotLists = wheelLevels * wheelSlots // far-tier slot list ids: 0..703
	listNear     = uint16(numSlotLists)
	listBatch    = listNear + 1
	listNone     = ^uint16(0)
)

// Both tiers keep their events in doubly-linked lists whose links are slab
// indices in the slab's link chunks, so membership changes are a handful
// of 4-byte stores with no allocation and a list head is one word.
// A tier's occupancy bitmap says which of its lists hold events; the head
// of an empty list is stale and never read, so no head needs initializing.
// Events are pushed at the front: neither tier depends on the order within
// a list, because the near tier sorts a bucket before dispatching it.

// pushFront links ev (at slab index idx) at the front of the list headed by
// *head, recording the list id on the event. empty says the list holds no
// events, so *head is stale.
func (s *eventSlab) pushFront(head *uint32, empty bool, ev *Event, idx uint32, id uint16) {
	ev.in = id
	l := s.link(idx)
	l.prev = nilIdx
	if empty {
		l.next = nilIdx
	} else {
		l.next = *head
		s.link(*head).prev = idx
	}
	*head = idx
}

// unlink removes ev (at slab index idx) from the list headed by *head in
// O(1), clears its links, and reports whether the list is now empty: the
// caller clears the list's occupancy bit then.
func (s *eventSlab) unlink(head *uint32, ev *Event, idx uint32) (emptied bool) {
	l := s.link(idx)
	switch {
	case l.prev != nilIdx:
		s.link(l.prev).next = l.next
	case l.next == nilIdx:
		emptied = true
	default:
		*head = l.next
	}
	if l.next != nilIdx {
		s.link(l.next).prev = l.prev
	}
	*l = link{nilIdx, nilIdx}
	ev.in = listNone
	return emptied
}

// checkList validates the link structure of the nonempty list starting at
// head — every member is a carved slot, claims the list id, is pending, and
// has a prev link mirroring the next link that reached it — and calls visit
// on each member. It returns the number of members.
func (s *eventSlab) checkList(head uint32, id uint16, what string, visit func(*Event) error) (int, error) {
	n := 0
	prev := nilIdx
	for i := head; i != nilIdx; {
		if uint64(i) >= s.carved || uint64(n) >= s.carved {
			return n, fmt.Errorf("sim: %s entry %d links to slot %d, past the slab or round a cycle", what, n, i)
		}
		ev, l := s.at(i), s.link(i)
		if ev.in != id {
			return n, fmt.Errorf("sim: %s entry %d claims a different owning list (%d)", what, n, ev.in)
		}
		if l.prev != prev {
			return n, fmt.Errorf("sim: %s entry %d has a broken prev link", what, n)
		}
		if ev.resolved() {
			return n, fmt.Errorf("sim: resolved event resident in %s", what)
		}
		if err := visit(ev); err != nil {
			return n, err
		}
		prev = i
		i = l.next
		n++
	}
	return n, nil
}
