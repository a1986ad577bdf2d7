package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// Wheel geometry. Level l slots are 64^l ticks wide, so level 0 slots hold
// exactly one timestamp and a dispatch batch is exactly the same-time
// events. The levels cover every value bit of a non-negative Time (eleven
// levels, 66 bits for 63, the top level using slots 0..7), so every deadline
// has a slot.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	timeBits    = int(8*unsafe.Sizeof(Time(0))) - 1 // value bits of a non-negative Time
	wheelLevels = (timeBits + wheelBits - 1) / wheelBits
)

// wheel is the hierarchical timing-wheel scheduler. Placement uses the
// classic highest-differing-bit-group rule: an event at time t goes to the
// level of the top 6-bit group where t differs from the wheel clock cur,
// at slot (t >> 6·level) & 63. Because every resident event shares all
// higher groups with cur, slots within a level are strictly ordered in time
// from the clock's own slot upward — there is no circular wraparound to
// disambiguate, and the lowest set bit of a level's occupancy bitmap is
// always that level's earliest window.
//
// The slot lists are slab-index links (slotList), so the whole wheel
// skeleton is 704 two-word list heads — 5.5 KiB, cache-resident — and walking
// a slot touches the contiguous event slab rather than chasing heap
// pointers.
//
// Costs: schedule and remove are O(1). popDue reads each slot once: it
// descends from the lowest occupied slot, pops a lone resident of any level
// directly, and cascades a slot of several only when it is the earliest, so
// each event is relinked at most wheelLevels times over its whole life and
// the clock jumps between deadlines (this is a discrete-event simulator — no
// tick parade). The one remaining slot scan is next's, for NextEventTime.
type wheel struct {
	sl       *eventSlab
	cur      Time
	slots    [numSlotLists]slotList // indexed level<<wheelBits | slot
	occupied [wheelLevels]uint64    // bit s set iff slots[l<<6|s] is nonempty

	// due is the same-timestamp dispatch batch: the level-0 slot at cur,
	// detached and sorted by (schedAt, seq). popDue serves from it until it
	// drains. While it is live, an event scheduled at its instant joins it at
	// its (schedAt, seq) position (insertDue): a plain schedule carries the
	// largest stamp yet and appends, while a reserved, earlier stamp must
	// still fire ahead of the batch's later residents.
	due slotList

	count   int
	scratch []uint32 // reusable sort buffer for dispatch batches

	peakCount int // lifetime high-water mark, maintained inline on the schedule path
}

func newWheel(sl *eventSlab) *wheel {
	w := &wheel{sl: sl}
	for i := range w.slots {
		w.slots[i].init()
	}
	w.due.init()
	return w
}

func (w *wheel) schedule(ev *Event, idx uint32) {
	w.count++
	if w.count > w.peakCount {
		w.peakCount = w.count
	}
	if ev.time == w.cur && !w.due.empty() {
		w.insertDue(ev, idx)
		return
	}
	w.place(ev, idx)
}

// insertDue links ev into the live dispatch batch at its (schedAt, seq)
// position, walking back from the tail: a plain schedule stops at once, a
// reserved stamp passes every resident stamped after it. Nothing it passes
// has fired yet, because the engine refuses a stamp that has already passed.
func (w *wheel) insertDue(ev *Event, idx uint32) {
	at := w.due.tail
	for at != nilIdx && stampCmp(w.sl.at(at), ev) > 0 {
		at = w.sl.at(at).prev
	}
	w.due.insertAfter(w.sl, ev, idx, at, listDue)
}

// stampCmp orders two events sharing an instant by (schedAt, seq).
func stampCmp(a, b *Event) int {
	switch {
	case a.schedAt < b.schedAt:
		return -1
	case a.schedAt > b.schedAt:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	default:
		return 0
	}
}

// place links ev into the slot its deadline selects relative to the current
// wheel clock.
func (w *wheel) place(ev *Event, idx uint32) {
	d := uint64(ev.time ^ w.cur)
	l := 0
	if d != 0 {
		l = (63 - bits.LeadingZeros64(d)) / wheelBits
	}
	s := int((uint64(ev.time) >> (l * wheelBits)) & wheelMask)
	id := uint16(l<<wheelBits | s)
	w.slots[id].pushBack(w.sl, ev, idx, id)
	w.occupied[l] |= 1 << s
}

func (w *wheel) remove(ev *Event, idx uint32) {
	switch id := ev.in; id {
	case listDue:
		w.due.unlink(w.sl, ev)
	default:
		li := &w.slots[id]
		li.unlink(w.sl, ev)
		if li.empty() {
			w.occupied[id>>wheelBits] &^= 1 << (id & wheelMask)
		}
	}
	w.count--
}

// next returns the earliest pending deadline without mutating the wheel.
// A partially drained dispatch batch holds the current instant's remaining
// events, which by construction precede everything still in the slots. The
// XOR placement rule makes levels strictly ordered in time: every level-l
// resident precedes every level-(l+1) resident (they differ from the clock
// in a higher bit group). So the earliest event in the slots lives in the
// lowest occupied slot of the lowest occupied level. A level-0 slot holds a
// single timestamp; a higher slot is scanned for its minimum. Dispatch never
// calls this — popDue descends instead, so the scan is paid only by
// NextEventTime, which the sharded runner reads once per window.
func (w *wheel) next() (Time, bool) {
	if h := w.due.head; h != nilIdx {
		return w.sl.at(h).time, true
	}
	for l := 0; l < wheelLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			continue
		}
		s := bits.TrailingZeros64(occ)
		if l == 0 {
			return w.cur&^wheelMask | Time(s), true
		}
		best := MaxTime
		for i := w.slots[l<<wheelBits|s].head; i != nilIdx; {
			ev := w.sl.at(i)
			if ev.time < best {
				best = ev.time
			}
			i = ev.next
		}
		return best, true
	}
	return MaxTime, false
}

// popDue descends from the earliest occupied slot and reads each slot once.
// The lowest occupied slot of the lowest occupied level is the earliest
// window. If it holds one event, that event pops directly: any other event
// due at the same instant would share its slot. If it holds several, the
// clock moves to the window start, which precedes them all (at level 0 the
// start is their common instant, read from the bitmap), and a higher slot
// cascades strictly downward in one pass before the descent repeats. (On
// the top level the window-start mask shifts 1 by 66, which Go defines as 0,
// so the start keeps no bit of the clock: there is no higher group to keep.)
// The clock never passes limit, so after a call that finds nothing due it
// may rest at a window start behind the engine clock; placement only needs
// every resident at or after it.
func (w *wheel) popDue(limit Time) uint32 {
	if h := w.due.head; h != nilIdx {
		ev := w.sl.at(h)
		if ev.time > limit {
			return nilIdx
		}
		w.due.unlink(w.sl, ev)
		w.count--
		return h
	}
	var li *slotList
	for {
		l := 0
		for l < wheelLevels && w.occupied[l] == 0 {
			l++
		}
		if l == wheelLevels {
			return nilIdx
		}
		s := bits.TrailingZeros64(w.occupied[l])
		li = &w.slots[l<<wheelBits|s]
		if h := li.head; h == li.tail {
			ev := w.sl.at(h)
			if ev.time > limit {
				return nilIdx
			}
			w.cur = ev.time
			li.unlink(w.sl, ev)
			w.occupied[l] &^= 1 << s
			w.count--
			return h
		}
		shift := l * wheelBits
		start := w.cur&^(Time(1)<<(shift+wheelBits)-1) | Time(s)<<shift
		if start > limit {
			return nilIdx
		}
		w.cur = start
		w.occupied[l] &^= 1 << s
		if l == 0 {
			break
		}
		// Every resident now shares group l with the clock, so place picks a
		// lower level for each; pushBack rewrites the links, so the list is
		// detached whole.
		i := li.head
		li.init()
		for i != nilIdx {
			ev := w.sl.at(i)
			next := ev.next
			w.place(ev, i)
			i = next
		}
	}

	// Several events share the clock's instant: sort the level-0 slot by
	// (schedAt, seq) into the dispatch batch. Direct local schedules append
	// in that order already; cascaded arrivals, reserved stamps and
	// backdated cross-shard deliveries can interleave, hence the sort
	// (pdqsort, linear on the already-sorted common case).
	sl := w.sl
	w.scratch = w.scratch[:0]
	for i := li.head; i != nilIdx; i = sl.at(i).next {
		w.scratch = append(w.scratch, i)
	}
	li.init() // pushBack below rewrites every link
	slices.SortFunc(w.scratch, func(a, b uint32) int { return stampCmp(sl.at(a), sl.at(b)) })
	for _, i := range w.scratch {
		w.due.pushBack(sl, sl.at(i), i, listDue)
	}
	h := w.due.head
	w.due.unlink(sl, sl.at(h))
	w.count--
	return h
}

func (w *wheel) size() int { return w.count }

func (w *wheel) stats() SchedStats {
	return SchedStats{Pending: w.count, PeakPending: w.peakCount}
}

// check validates the wheel's structural invariants: occupancy bits mirror
// slot contents, every resident event is pending, in the slot its deadline
// selects, on exactly the level its deadline selects against the clock (no
// overdue cascade, none left in the clock's own slot), and not behind the
// clock; the wheel clock is not ahead of the engine clock, though it may
// rest behind it; the dispatch batch holds only current-instant events
// in (schedAt, seq) order, and while it is live no other event shares its
// instant; and the total count matches size.
func (w *wheel) check(now Time) error {
	if w.cur > now {
		return fmt.Errorf("sim: wheel clock %v ahead of engine clock %v", w.cur, now)
	}
	count := 0
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			id := uint16(l<<wheelBits | s)
			li := &w.slots[id]
			occupied := w.occupied[l]&(1<<s) != 0
			if occupied != !li.empty() {
				return fmt.Errorf("sim: wheel level %d slot %d occupancy bit %v disagrees with contents", l, s, occupied)
			}
			if li.head == nilIdx && li.tail == nilIdx {
				continue // all checkLinks would verify, without naming 704 slots per call
			}
			n, err := li.checkLinks(w.sl, id, fmt.Sprintf("wheel level %d slot %d", l, s))
			if err != nil {
				return err
			}
			count += n
			for i := li.head; i != nilIdx; {
				ev := w.sl.at(i)
				if ev.resolved() {
					return fmt.Errorf("sim: resolved event resident at wheel level %d slot %d", l, s)
				}
				if ev.time < w.cur {
					return fmt.Errorf("sim: wheel event at %v behind wheel clock %v", ev.time, w.cur)
				}
				if got := int((uint64(ev.time) >> (l * wheelBits)) & wheelMask); got != s {
					return fmt.Errorf("sim: event at %v in wheel level %d slot %d, deadline selects slot %d", ev.time, l, s, got)
				}
				// Overdue for a cascade, or left in the clock's own slot above
				// level 0, where a same-instant schedule would miss it.
				if d := uint64(ev.time ^ w.cur); d>>((l+1)*wheelBits) != 0 || (l > 0 && d>>(l*wheelBits) == 0) {
					return fmt.Errorf("sim: event at %v on wheel level %d, clock %v selects another", ev.time, l, w.cur)
				}
				if ev.time == w.cur && !w.due.empty() {
					return fmt.Errorf("sim: event at %v outside the live dispatch batch of its instant", ev.time)
				}
				i = ev.next
			}
		}
	}
	n, err := w.due.checkLinks(w.sl, listDue, "wheel dispatch batch")
	if err != nil {
		return err
	}
	count += n
	var prevSchedAt Time
	var prevSeq uint64
	for i := w.due.head; i != nilIdx; {
		ev := w.sl.at(i)
		if ev.time != w.cur {
			return fmt.Errorf("sim: dispatch-batch event at %v, wheel clock %v", ev.time, w.cur)
		}
		if ev.resolved() {
			return fmt.Errorf("sim: resolved event in the dispatch batch")
		}
		if i != w.due.head && (ev.schedAt < prevSchedAt || (ev.schedAt == prevSchedAt && ev.seq <= prevSeq)) {
			return fmt.Errorf("sim: dispatch batch out of (schedAt, seq) order ((%v,%d) after (%v,%d))",
				ev.schedAt, ev.seq, prevSchedAt, prevSeq)
		}
		prevSchedAt, prevSeq = ev.schedAt, ev.seq
		i = ev.next
	}
	if count != w.count {
		return fmt.Errorf("sim: wheel holds %d events but count says %d", count, w.count)
	}
	return nil
}
