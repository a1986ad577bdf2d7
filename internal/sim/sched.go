package sim

import "fmt"

// SchedulerKind selects the event-queue implementation backing an Engine.
// Both schedulers fire events in identical (time, schedAt, seq) order — the
// golden digest test and FuzzSchedulerEquivalence prove it. Production runs
// use the wheel; the heap is kept as the reference implementation those
// tests compare it against.
type SchedulerKind string

const (
	// SchedWheel is the hierarchical timing wheel: O(1) schedule, O(1) true
	// removal on cancel, amortized O(levels) dispatch. The default.
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

// Wheel list identifiers, stored in Event.in. The 704 slot lists are named
// level<<wheelBits | slot; the dispatch batch follows. listNone marks an
// event resident in no list (free, or in the heap).
const (
	numSlotLists = wheelLevels * wheelSlots // slot list ids: 0..703
	listDue      = uint16(numSlotLists)
	listNone     = ^uint16(0)
)

// slotList is an intrusive doubly-linked list of pending events, used by the
// timing wheel for its slots and its same-timestamp dispatch batch. Links
// are slab indices living on the Event itself, so membership changes are a
// handful of 4-byte stores with no allocation and the list head is a single
// word. The zero value is NOT an empty list — index 0 is a real slot — so
// wheels initialize head and tail to nilIdx.
type slotList struct {
	head, tail uint32
}

func (l *slotList) init() { l.head, l.tail = nilIdx, nilIdx }

func (l *slotList) empty() bool { return l.head == nilIdx }

// pushBack appends ev (at slab index idx) and records the owning list id on
// the event.
func (l *slotList) pushBack(sl *eventSlab, ev *Event, idx uint32, id uint16) {
	ev.in = id
	ev.prev = l.tail
	ev.next = nilIdx
	if l.tail != nilIdx {
		sl.at(l.tail).next = idx
	} else {
		l.head = idx
	}
	l.tail = idx
}

// insertAfter links ev (at slab index idx) right behind the resident at
// slab index after, or at the head when after is nilIdx, and records the
// owning list id on the event.
func (l *slotList) insertAfter(sl *eventSlab, ev *Event, idx, after uint32, id uint16) {
	ev.in = id
	ev.prev = after
	if after == nilIdx {
		ev.next = l.head
		l.head = idx
	} else {
		a := sl.at(after)
		ev.next = a.next
		a.next = idx
	}
	if ev.next != nilIdx {
		sl.at(ev.next).prev = idx
	} else {
		l.tail = idx
	}
}

// unlink removes ev from this list in O(1) and clears its links. Callers
// removing the last resident of a wheel slot must clear the level's
// occupancy bit themselves (the wheel's remove and cascade paths do).
func (l *slotList) unlink(sl *eventSlab, ev *Event) {
	if ev.prev != nilIdx {
		sl.at(ev.prev).next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nilIdx {
		sl.at(ev.next).prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	ev.next, ev.prev, ev.in = nilIdx, nilIdx, listNone
}

// checkLinks validates the list's internal link structure — every resident
// claims the list id, prev links mirror next links, tail reaches the last
// entry — and returns the number of events it holds.
func (l *slotList) checkLinks(sl *eventSlab, id uint16, what string) (int, error) {
	n := 0
	prev := nilIdx
	for i := l.head; i != nilIdx; {
		ev := sl.at(i)
		if ev.in != id {
			return n, fmt.Errorf("sim: %s entry %d claims a different owning list (%d)", what, n, ev.in)
		}
		if ev.prev != prev {
			return n, fmt.Errorf("sim: %s entry %d has a broken prev link", what, n)
		}
		prev = i
		i = ev.next
		n++
	}
	if l.tail != prev {
		return n, fmt.Errorf("sim: %s tail does not reach the last entry", what)
	}
	if (l.head == nilIdx) != (l.tail == nilIdx) {
		return n, fmt.Errorf("sim: %s head/tail nil mismatch", what)
	}
	return n, nil
}
