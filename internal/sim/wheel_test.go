package sim

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// level8 is the earliest deadline a fresh wheel places above level 7: its
// bit 48 differs from the clock at zero.
const level8 = Time(1) << (8 * wheelBits)

// TestWheelFarFuture schedules deadlines on the far tier's top three levels,
// up to MaxTime, between nearer events, and checks each lands in the slot
// the placement rule selects, the invariants hold after every schedule, and
// all fire in order as the clock cascades down to them.
func TestWheelFarFuture(t *testing.T) {
	e := NewEngine()
	w := &e.q.(*tiered).far
	var order []int
	for i, at := range []Time{
		5,
		level8 + 7,            // level 8, slot 1
		3*level8 + 11,         // level 8, slot 3
		5<<(9*wheelBits) + 13, // level 9, slot 5
		Time(1) << 62,         // level 10, slot 4
		MaxTime,               // level 10, slot 7
		Time(1000 * Microsecond),
	} {
		e.At(at, func() { order = append(order, i) })
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("after scheduling at %v: %v", at, err)
		}
	}
	if w.occupied[8] != 1<<1|1<<3 || w.occupied[9] != 1<<5 || w.occupied[10] != 1<<4|1<<7 {
		t.Fatalf("occupancy of levels 8..10 = %#x %#x %#x, want 0xa 0x20 0x90",
			w.occupied[8], w.occupied[9], w.occupied[10])
	}
	if end := e.Run(); end != MaxTime {
		t.Fatalf("run ended at %v, want MaxTime", end)
	}
	want := []int{0, 6, 1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// TestWheelOverflowCancel cancels the earlier of two events sharing a
// top-level slot and checks the other still fires at its deadline.
func TestWheelOverflowCancel(t *testing.T) {
	e := NewEngine()
	const at = Time(1) << 62
	hMin := e.At(at+1, func() { t.Fatal("canceled top-level event fired") })
	fired := false
	e.At(at+2, func() { fired = true })
	if in := hMin.deref().in; in != 10<<wheelBits|4 {
		t.Fatalf("event at 2^62+1 in list %d, want level 10 slot 4", in)
	}
	hMin.Cancel()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after canceling the slot's earliest event: %v", err)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	if next, ok := e.NextEventTime(); !ok || next != at+2 {
		t.Fatalf("NextEventTime() = (%v, %v), want %v", next, ok, at+2)
	}
	if end := e.Run(); end != at+2 {
		t.Fatalf("run ended at %v, want %v", end, at+2)
	}
	if !fired {
		t.Fatal("surviving top-level event did not fire")
	}
}

// TestWheelZeroDelay pins At(now): an event at the current instant fires in
// the same Run, after already-pending same-time events with smaller seq and
// before anything later — including when scheduled from inside a callback at
// the same timestamp.
func TestWheelZeroDelay(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var order []int
		e.At(10, func() {
			order = append(order, 1)
			e.At(10, func() { order = append(order, 3) }) // zero delay, mid-dispatch
			e.At(e.Now(), func() { order = append(order, 4) })
		})
		e.At(10, func() { order = append(order, 2) })
		e.At(11, func() { order = append(order, 5) })
		e.At(0, func() { order = append(order, 0) }) // zero-delay at a fresh engine's now
		e.Run()
		want := []int{0, 1, 2, 3, 4, 5}
		if len(order) != len(want) {
			t.Fatalf("%s: fired %d of %d events: %v", kind, len(order), len(want), order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("%s: firing order %v, want %v", kind, order, want)
			}
		}
	}
}

// TestTimerResetAcrossCascadeBoundary arms a rearmable Timer past the near
// window, lets the clock approach a far-tier slot boundary, and Resets the
// deadline across it — the cancel-and-reinsert must survive the cascades
// and the migration that rebase the far tier.
func TestTimerResetAcrossCascadeBoundary(t *testing.T) {
	e := NewEngine()
	var tm Timer
	fired := 0
	tm.Init(e, func() { fired++ })

	// Park the deadline a window's span past a level-4 boundary (64^4
	// ticks), then walk the clock toward the boundary with plain events,
	// rearming the timer each step so its event keeps crossing the cascade.
	boundary := Time(1) << (4 * wheelBits)
	deadline := boundary + nearSpan + 100
	tm.ResetAt(deadline)
	for step := Time(1); step < 10; step++ {
		at := boundary - 10 + step
		e.At(at, func() { tm.ResetAt(deadline) })
	}
	e.RunUntil(boundary + 50)
	if fired != 0 {
		t.Fatalf("timer fired %d times before its deadline", fired)
	}
	if !tm.Pending() || tm.When() != deadline {
		t.Fatalf("timer pending=%v when=%v, want armed at %v", tm.Pending(), tm.When(), deadline)
	}
	if in := tm.h.deref().in; in>>wheelBits != 4 {
		t.Fatalf("timer event in list %d, want a far-tier level-4 slot", in)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("mid-run: %v", err)
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want exactly 1", fired)
	}
	if e.Now() != deadline {
		t.Fatalf("run ended at %v, want %v", e.Now(), deadline)
	}
}

// TestWheelInvariantsUnderChurn hammers the wheel with a random
// schedule/cancel/advance mix and validates the full structural invariant
// set after every burst.
func TestWheelInvariantsUnderChurn(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewPCG(11, 7))
	var handles []Handle
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			// Deltas spread across every level.
			d := Duration(1) << rng.Uint64N(62)
			handles = append(handles, e.After(d+Duration(rng.Uint64N(1000)), func() {}))
		}
		for i := 0; i < 8 && len(handles) > 0; i++ {
			j := rng.IntN(len(handles))
			handles[j].Cancel()
			handles[j] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
		}
		e.RunUntil(e.Now() + Time(rng.Uint64N(1<<20)))
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after full drain", e.Pending())
	}
}

// TestCheckInvariantsDetectsWheelCorruption pokes the far tier's structure
// directly and checks each corruption is caught: occupancy-bit drift, slot
// mismembership, count drift, a clock past the near window, and a resident
// left in the clock's own slot above level 0.
func TestCheckInvariantsDetectsWheelCorruption(t *testing.T) {
	// far3 is past the near window of a fresh engine, on far-tier level 3,
	// slot 16: it differs from the clock at zero first in bit 22.
	const far3 = nearSpan + 100
	newPopulated := func() (*Engine, *wheel) {
		e := NewEngine()
		e.At(100, func() {})
		e.At(far3, func() {})
		e.At(level8+3, func() {})
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("populated: %v", err)
		}
		return e, &e.q.(*tiered).far
	}
	for _, c := range []struct {
		name    string
		corrupt func(*Engine, *wheel)
		want    string
	}{
		{"occupancy-bit drift", func(_ *Engine, w *wheel) { w.occupied[0] |= 1 << 7 }, "claims a different owning list"},
		{"count drift", func(_ *Engine, w *wheel) { w.count++ }, "count says"},
		{"slot mismembership", func(_ *Engine, w *wheel) {
			// Relocate the level-3 event into a slot its deadline does not
			// select.
			from := uint16(3<<wheelBits | 16)
			idx := w.slots[from]
			if w.occupied[3] != 1<<16 {
				t.Fatal("test premise broken: expected a lone level-3 resident at slot 16")
			}
			ev := w.sl.at(idx)
			w.sl.unlink(&w.slots[from], ev, idx)
			w.occupied[3] = 0
			to := uint16(3<<wheelBits | 9)
			w.sl.pushFront(&w.slots[to], true, ev, idx, to)
			w.occupied[3] = 1 << 9
		}, "deadline selects slot 16"},
		// Migration may carry the far clock to the window's last instant,
		// never past it (or past the engine clock).
		{"clock past the window", func(_ *Engine, w *wheel) { w.cur = nearSpan }, "far-tier clock"},
		// With both clocks at 2^22 (the near window left where it was, and
		// its event at 100 dropped) the level-3 event at 2^22+100 sits in
		// the clock's own level-3 slot: it belongs on level 1, where a
		// same-instant schedule would land, apart from it.
		{"resident in the clock's own slot", func(e *Engine, w *wheel) {
			e.now, w.cur = nearSpan, nearSpan
			q := e.q.(*tiered)
			q.clear(bucket(100))
			q.count--
		}, "clock 4.194us selects another"},
	} {
		e, w := newPopulated()
		c.corrupt(e, w)
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestWheelClockRestsInsideWindow stops a RunUntil inside a multi-event
// far-tier slot's window, short of its earliest event, with the near tier
// empty. The engine clock must read the deadline, the far clock rests at
// the window start behind it, and an event scheduled at the deadline fires
// before the window's events.
func TestWheelClockRestsInsideWindow(t *testing.T) {
	e := NewEngine()
	w := &e.q.(*tiered).far
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	const start = Time(5 << (4 * wheelBits)) // level-4 slot 5: [5·2^24, 6·2^24)
	e.At(start+10, rec)
	e.At(start+20, rec)
	deadline := start + 3
	if got := e.RunUntil(deadline); got != deadline || e.Now() != deadline {
		t.Fatalf("RunUntil returned %v, Now() = %v, want %v", got, e.Now(), deadline)
	}
	if len(order) != 0 {
		t.Fatalf("fired %v before the window's first event", order)
	}
	if w.cur != start {
		t.Fatalf("far-tier clock %v, want the window start %v", w.cur, start)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("resting inside the window: %v", err)
	}
	e.At(deadline, rec)
	e.Run()
	want := []Time{deadline, start + 10, start + 20}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("fired at %v, want %v", order, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// TestWheelSameInstantAcrossLevels parks an event far ahead on far-tier
// level 4, lets the clock come within a window's span of it, and then
// schedules two more events at that instant, one backdated. Far-tier
// placement is relative to the far clock, not the engine clock, so all
// three share the parked event's slot, and the migration that carries one
// into the near tier carries all three. They fire in (schedAt, seq) order,
// as the heap fires them.
func TestWheelSameInstantAcrossLevels(t *testing.T) {
	const at = Time(3<<(4*wheelBits) + 5) // level 4 from the origin
	const step = at - 10 - nearSpan       // the window's last instant stays short of at
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var order []string
		rec := func(name string) func() { return func() { order = append(order, name) } }
		e.RunUntil(100)
		far := e.At(at, rec("far")) // schedAt 100
		e.At(step, rec("step"))
		e.RunUntil(step)
		late := e.At(at, rec("late"))                                  // schedAt step
		back := e.AtHandlerFrom(at, 50, funcHandler(rec("backdated"))) // schedAt 50
		if kind == SchedWheel {
			in := far.deref().in
			if in>>wheelBits != 4 || late.deref().in != in || back.deref().in != in {
				t.Fatalf("lists: far %d, late %d, backdated %d; want one far-tier level-4 slot",
					in, late.deref().in, back.deref().in)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		e.Run()
		want := []string{"step", "backdated", "far", "late"}
		if len(order) != len(want) {
			t.Fatalf("%s: fired %v, want %v", kind, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("%s: fired %v, want %v", kind, order, want)
			}
		}
	}
}

// TestWheelPendingAcrossLevels cross-checks Pending and EventAllocs while
// events sit at different levels, up to the top one.
func TestWheelPendingAcrossLevels(t *testing.T) {
	e := NewEngine()
	deltas := []Duration{1, 63, 64, 4095, 4096, 1 << 18, 1 << 30, 1 << 47, 1 << 50, 1 << 55, 1 << 62}
	for _, d := range deltas {
		e.After(d, func() {})
	}
	if got := e.Pending(); got != len(deltas) {
		t.Fatalf("Pending() = %d, want %d", got, len(deltas))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("populated: %v", err)
	}
	e.Run()
	if e.Fired() != uint64(len(deltas)) {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), len(deltas))
	}
}

// TestWheelOverflowMassCancel is the capacity gate for one crowded slot:
// with over a million events parked in a single far-tier level-8 slot,
// canceling large swaths of them — repeatedly including the slot's earliest
// event — must keep the earliest-deadline query truthful, keep the
// occupancy counter exact, and leave the survivors firing in timestamp
// order once the window reaches them.
func TestWheelOverflowMassCancel(t *testing.T) {
	const n = 1 << 20 // ~1.05M pending events
	e := NewEngine()
	w := &e.q.(*tiered).far

	// Park n events in level-8 slot 1 with a deterministic shuffled order of
	// deadlines so the slot list is thoroughly unsorted. With the lower
	// levels empty, next scans that slot for its minimum.
	handles := make([]Handle, n)
	r := rand.New(rand.NewPCG(7, 9))
	perm := r.Perm(n)
	for _, p := range perm {
		handles[p] = e.At(level8+Time(2*p+2), func() {})
	}
	if got := e.Pending(); got != n {
		t.Fatalf("Pending() = %d, want %d", got, n)
	}
	if w.occupied[8] != 1<<1 {
		t.Fatalf("level-8 occupancy %#x, want slot 1 only", w.occupied[8])
	}
	if st := e.SchedStats(); st != (SchedStats{Pending: n, PeakPending: n, FarPlaced: n}) {
		t.Fatalf("stats = %+v, want %d pending at the peak", st, n)
	}

	// Cancel the current minimum 64 times in a row: each query must rescan
	// the slot instead of reporting a dead deadline.
	for i := 0; i < 64; i++ {
		handles[i].Cancel()
		if min, ok := w.next(); !ok || min != level8+Time(2*(i+1)+2) {
			t.Fatalf("after canceling minimum %d: next = (%v, %v), want %v",
				i, min, ok, level8+Time(2*(i+1)+2))
		}
	}
	// Mass-cancel three quarters of the remainder (every index not divisible
	// by four), shuffled, without querying in between: O(1) per cancel.
	canceled := 64
	for _, p := range perm {
		if p >= 64 && p%4 != 0 {
			handles[p].Cancel()
			canceled++
		}
	}
	if st := e.SchedStats(); st.Pending != n-canceled {
		t.Fatalf("Pending after mass cancel = %d, want %d", st.Pending, n-canceled)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after mass cancellation: %v", err)
	}
	if min, ok := w.next(); !ok || min != level8+Time(2*64+2) {
		t.Fatalf("next = (%v, %v), want %v", min, ok, level8+Time(2*64+2))
	}

	// The survivors must fire in timestamp order, and all of them must fire.
	var last Time
	fired := 0
	for {
		idx := e.q.popDue(MaxTime)
		if idx == nilIdx {
			break
		}
		ev := e.slab.at(idx)
		if ev.time < last {
			t.Fatalf("event at %v popped after %v", ev.time, last)
		}
		last = ev.time
		e.now = ev.time
		ev.flags |= evFired
		e.release(ev, idx)
		fired++
	}
	want := n - canceled
	if fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
	if st := e.SchedStats(); st.Pending != 0 {
		t.Fatalf("post-drain stats = %+v, want empty", st)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}
