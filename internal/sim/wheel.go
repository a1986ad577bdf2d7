package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Wheel geometry. Level l slots are 64^l ticks wide, so a level-0 slot holds
// exactly one timestamp. The levels cover every value bit of a non-negative
// Time (eleven levels, 66 bits for 63, the top level using slots 0..7), so
// every deadline has a slot.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	timeBits    = int(8*unsafe.Sizeof(Time(0))) - 1 // value bits of a non-negative Time
	wheelLevels = (timeBits + wheelBits - 1) / wheelBits
)

// wheel is the hierarchical timing wheel that serves as the far tier: it
// holds the events due past the near tier's window and hands them over as
// the window reaches them, in time order but in no particular order within
// an instant, since the near tier sorts what it receives. Placement uses the
// classic highest-differing-bit-group rule: an event at time t goes to the
// level of the top 6-bit group where t differs from the wheel clock cur, at
// slot (t >> 6·level) & 63. Because every resident event shares all higher
// groups with cur, slots within a level are strictly ordered in time from
// the clock's own slot upward — there is no circular wraparound to
// disambiguate, and the lowest set bit of a level's occupancy bitmap is
// always that level's earliest window.
//
// The slot lists are push-front slab-index lists (see pushFront), so the
// whole wheel skeleton is 704 one-word list heads — 2.75 KiB.
//
// Costs: schedule and remove are O(1). popDue reads each slot once: it
// descends from the lowest occupied slot, pops a lone resident of any level
// (or any resident of a level-0 slot) directly, and cascades a slot of
// several only when it is the earliest, so each event is relinked at most
// wheelLevels times over its whole life and the clock jumps between
// deadlines (this is a discrete-event simulator — no tick parade).
type wheel struct {
	sl       *eventSlab
	cur      Time
	slots    [numSlotLists]uint32 // list heads, indexed level<<wheelBits | slot
	occupied [wheelLevels]uint64  // bit s set iff slots[l<<6|s] is nonempty
	count    int
}

func (w *wheel) schedule(ev *Event, idx uint32) {
	w.count++
	w.place(ev, idx)
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
	w.sl.pushFront(&w.slots[id], w.occupied[l]&(1<<s) == 0, ev, idx, id)
	w.occupied[l] |= 1 << s
}

func (w *wheel) remove(ev *Event, idx uint32) {
	id := ev.in
	if w.sl.unlink(&w.slots[id], ev, idx) {
		w.occupied[id>>wheelBits] &^= 1 << (id & wheelMask)
	}
	w.count--
}

// start returns the first instant of level l slot s's window. On the top
// level the mask shifts 1 by 66, which Go defines as 0, so the start keeps
// no bit of the clock: there is no higher group to keep.
func (w *wheel) start(l, s int) Time {
	shift := l * wheelBits
	return w.cur&^(Time(1)<<(shift+wheelBits)-1) | Time(s)<<shift
}

// earliest returns the level and slot of the earliest occupied slot, or
// l == wheelLevels when the wheel is empty. The XOR placement rule orders
// levels strictly in time too: every level-l resident precedes every
// level-(l+1) resident (they differ from the clock in a higher bit group).
func (w *wheel) earliest() (l, s int) {
	for l < wheelLevels && w.occupied[l] == 0 {
		l++
	}
	if l < wheelLevels {
		s = bits.TrailingZeros64(w.occupied[l])
	}
	return l, s
}

// floor returns an instant no resident precedes: the deadline of the
// earliest slot's resident when it holds one, else that slot's window
// start, or MaxTime when the wheel is empty.
func (w *wheel) floor() Time {
	l, s := w.earliest()
	if l == wheelLevels {
		return MaxTime
	}
	if h := w.slots[l<<wheelBits|s]; w.sl.link(h).next == nilIdx {
		return w.sl.at(h).time
	}
	return w.start(l, s)
}

// next returns the earliest pending deadline without mutating the wheel. It
// lives in the lowest occupied slot of the lowest occupied level: a level-0
// slot holds a single timestamp, read from the bitmap; a higher slot is
// scanned for its minimum. Dispatch never calls this, so the scan is paid
// only by NextEventTime when the near tier is empty.
func (w *wheel) next() (Time, bool) {
	l, s := w.earliest()
	switch {
	case l == wheelLevels:
		return MaxTime, false
	case l == 0:
		return w.cur&^wheelMask | Time(s), true
	}
	best := MaxTime
	for i := w.slots[l<<wheelBits|s]; i != nilIdx; i = w.sl.link(i).next {
		best = min(best, w.sl.at(i).time)
	}
	return best, true
}

// popDue removes and returns the slab index of a resident due at or before
// limit, or nilIdx when none is. Deadlines come out in time order, but the
// residents of one instant in any order. popDue descends from the earliest
// occupied slot and reads each slot once: a lone resident of any level pops
// directly (any other event at its instant would share its slot), and so
// does any resident of a level-0 slot, which holds one instant. A slot of
// several higher up moves the clock to its window start, which precedes
// them all, and cascades strictly downward in one pass before the descent
// repeats. The clock never passes limit; placement only needs every
// resident at or after it.
func (w *wheel) popDue(limit Time) uint32 {
	for {
		l, s := w.earliest()
		if l == wheelLevels {
			return nilIdx
		}
		id := l<<wheelBits | s
		h := w.slots[id]
		if l == 0 || w.sl.link(h).next == nilIdx {
			ev := w.sl.at(h)
			if ev.time > limit {
				return nilIdx
			}
			w.cur = ev.time
			if w.sl.unlink(&w.slots[id], ev, h) {
				w.occupied[l] &^= 1 << s
			}
			w.count--
			return h
		}
		start := w.start(l, s)
		if start > limit {
			return nilIdx
		}
		w.cur = start
		w.occupied[l] &^= 1 << s
		// Every resident now shares group l with the clock, so place picks a
		// lower level for each, relinking it before the walk moves on.
		for i := h; i != nilIdx; {
			next := w.sl.link(i).next
			w.place(w.sl.at(i), i)
			i = next
		}
	}
}

// check validates the wheel's structural invariants: every resident is
// pending, in the slot its deadline selects, on exactly the level its
// deadline selects against the clock (no overdue cascade, none left in the
// clock's own slot above level 0, where a same-instant schedule would miss
// it), not behind the clock, and not before floor; the clock has not passed
// bound; and the count matches the slots.
func (w *wheel) check(floor, bound Time) error {
	if w.cur > bound {
		return fmt.Errorf("sim: far-tier clock %v past %v", w.cur, bound)
	}
	count := 0
	for l := 0; l < wheelLevels; l++ {
		for occ := w.occupied[l]; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			id := uint16(l<<wheelBits | s)
			n, err := w.sl.checkList(w.slots[id], id, fmt.Sprintf("far-tier level %d slot %d", l, s), func(ev *Event) error {
				if ev.time < w.cur {
					return fmt.Errorf("sim: far-tier event at %v behind its clock %v", ev.time, w.cur)
				}
				if ev.time < floor {
					return fmt.Errorf("sim: far-tier event at %v before the tier's floor %v", ev.time, floor)
				}
				if got := int((uint64(ev.time) >> (l * wheelBits)) & wheelMask); got != s {
					return fmt.Errorf("sim: event at %v in far-tier level %d slot %d, deadline selects slot %d", ev.time, l, s, got)
				}
				if d := uint64(ev.time ^ w.cur); d>>((l+1)*wheelBits) != 0 || (l > 0 && d>>(l*wheelBits) == 0) {
					return fmt.Errorf("sim: event at %v on far-tier level %d, clock %v selects another", ev.time, l, w.cur)
				}
				return nil
			})
			if err != nil {
				return err
			}
			count += n
		}
	}
	if count != w.count {
		return fmt.Errorf("sim: far tier holds %d events but count says %d", count, w.count)
	}
	return nil
}
