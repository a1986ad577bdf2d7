package sim

import (
	"fmt"
)

// heapQueue is the reference scheduler: a binary min-heap of slab indices
// ordered by (time, schedAt, seq). Every operation is O(log n); Cancel is a
// true removal via the event's stored heap position, so — like the wheel —
// the heap never holds a canceled event. It exists only as the differential
// baseline for the wheel (FuzzSchedulerEquivalence, the golden digests);
// production runs never select it. The sift routines mirror container/heap;
// since (time, schedAt, seq) is a strict total order (seq is unique), pop
// order does not depend on the internal heap shape anyway.
type heapQueue struct {
	sl   *eventSlab
	h    []uint32
	peak int
}

// less orders heap positions by the events' (time, schedAt, seq) keys: ties
// at a deadline resolve by when the scheduling decision was made, then by
// scheduling order. On a lone engine schedAt is nondecreasing in seq, so
// this is the classic (time, seq) order; the schedAt key exists for
// backdated cross-shard deliveries (Engine.AtHandlerFrom).
func (q *heapQueue) less(i, j int) bool {
	a, b := q.sl.at(q.h[i]), q.sl.at(q.h[j])
	if a.time != b.time {
		return a.time < b.time
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.seq < b.seq
}

func (q *heapQueue) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.sl.at(q.h[i]).index = int32(i)
	q.sl.at(q.h[j]).index = int32(j)
}

func (q *heapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *heapQueue) down(i0, n int) bool {
	i := i0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		j := left
		if right := left + 1; right < n && q.less(right, left) {
			j = right
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *heapQueue) schedule(ev *Event, idx uint32) {
	ev.index = int32(len(q.h))
	q.h = append(q.h, idx)
	q.up(len(q.h) - 1)
	if len(q.h) > q.peak {
		q.peak = len(q.h)
	}
}

func (q *heapQueue) remove(ev *Event, idx uint32) {
	i := int(ev.index)
	n := len(q.h) - 1
	if i != n {
		q.swap(i, n)
	}
	q.h = q.h[:n]
	ev.index = -1
	if i != n {
		if !q.down(i, n) {
			q.up(i)
		}
	}
}

func (q *heapQueue) popDue(limit Time) uint32 {
	if len(q.h) == 0 {
		return nilIdx
	}
	root := q.h[0]
	ev := q.sl.at(root)
	if ev.time > limit {
		return nilIdx
	}
	n := len(q.h) - 1
	if n > 0 {
		q.swap(0, n)
	}
	q.h = q.h[:n]
	ev.index = -1
	q.down(0, n)
	return root
}

// next returns the earliest pending deadline — the heap root — without
// mutating the queue.
func (q *heapQueue) next() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.sl.at(q.h[0]).time, true
}

func (q *heapQueue) size() int { return len(q.h) }

// stats reports occupancy.
func (q *heapQueue) stats() SchedStats {
	return SchedStats{Pending: len(q.h), PeakPending: q.peak}
}

// check verifies the heap's bookkeeping: every entry knows its own position,
// no resolved event is resident, no pending event is behind the clock, and
// the heap order itself holds.
func (q *heapQueue) check(now Time) error {
	for i, idx := range q.h {
		ev := q.sl.at(idx)
		if ev.index != int32(i) {
			return fmt.Errorf("sim: heap entry %d carries index %d", i, ev.index)
		}
		if ev.resolved() {
			return fmt.Errorf("sim: resolved event at heap position %d", i)
		}
		if ev.time < now {
			return fmt.Errorf("sim: live event at %v behind clock %v", ev.time, now)
		}
	}
	for i := 1; i < len(q.h); i++ {
		parent := (i - 1) / 2
		if q.less(i, parent) {
			return fmt.Errorf("sim: heap order violated between %d and parent %d", i, parent)
		}
	}
	return nil
}
