package sim

import (
	"strings"
	"testing"
)

// checked fails t unless e's invariants hold.
func checked(t *testing.T, e *Engine, when string) {
	t.Helper()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// sameOrder fails t unless got equals want.
func sameOrder[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fired %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: fired %v, want %v", what, got, want)
		}
	}
}

// TestNearWindowEdge places one deadline on the window's last picosecond
// and one a picosecond later: the first goes to the near tier, the second
// to the far tier and is counted there, and both fire in order.
func TestNearWindowEdge(t *testing.T) {
	e := NewEngine()
	q := e.q.(*tiered)
	e.At(1500, func() {})
	e.Run() // the window now starts at bucket 1: [1024, 1024+2^22)
	last := q.last()
	if want := Time(1024) + nearSpan - 1; last != want {
		t.Fatalf("window's last instant %v, want %v", last, want)
	}
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	in := e.At(last, rec)
	out := e.At(last+1, rec)
	if got := in.deref().in; got != listNear {
		t.Fatalf("deadline on the window's last instant in list %d, want the near tier", got)
	}
	if got := out.deref().in; got >= listNear {
		t.Fatalf("deadline past the window in list %d, want a far-tier slot", got)
	}
	if st := e.SchedStats(); st.FarPlaced != 1 {
		t.Fatalf("FarPlaced = %d, want 1", st.FarPlaced)
	}
	checked(t, e, "placed")
	e.Run()
	sameOrder(t, "edge", order, []Time{last, last + 1})
	checked(t, e, "drained")
}

// TestNearMigration parks an event past the window and moves the clock
// until the window covers it: it migrates into its bucket when the window
// advances, not before, and fires in order among near events scheduled
// around it.
func TestNearMigration(t *testing.T) {
	e := NewEngine()
	q := e.q.(*tiered)
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	const far = nearSpan + 5000 // past the window of a fresh engine
	h := e.At(far, rec)
	e.At(4000, rec) // one bucket's advance short of covering far
	e.At(6000, rec) // the window's first bucket moves to 5, which covers it
	e.RunUntil(4000)
	if got := h.deref().in; got >= listNear {
		t.Fatalf("event at %v in list %d with the window ending %v, want the far tier", far, got, q.last())
	}
	checked(t, e, "window short of the far event")
	e.RunUntil(6000)
	if got := h.deref().in; got != listNear {
		t.Fatalf("event at %v in list %d with the window ending %v, want the near tier", far, got, q.last())
	}
	if q.far.count != 0 {
		t.Fatalf("far tier holds %d events after the migration, want 0", q.far.count)
	}
	checked(t, e, "migrated")
	e.At(far-1, rec)
	e.At(far, rec) // same instant, stamped after the migrated event
	e.Run()
	sameOrder(t, "migration", order, []Time{4000, 6000, far - 1, far, far})
	checked(t, e, "drained")
}

// TestNearJumpToFar leaves the near tier empty with events only in the far
// tier: NextEventTime reads the far tier, and dispatch jumps the window to
// the earliest far event, whose instant holds a second event stamped ahead
// of the one the far tier hands over first.
func TestNearJumpToFar(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var order []string
		rec := func(name string) func() { return func() { order = append(order, name) } }
		const at = 3 * nearSpan
		e.RunUntil(100)
		e.At(at+nearSpan+7, rec("later"))
		e.At(at, rec("first"))
		e.AtHandlerFrom(at, 50, funcHandler(rec("backdated")))
		if next, ok := e.NextEventTime(); !ok || next != at {
			t.Fatalf("%s: NextEventTime = (%v, %v), want %v", kind, next, ok, at)
		}
		if end := e.RunUntil(at - 1); end != at-1 || len(order) != 0 {
			t.Fatalf("%s: RunUntil(%v) ended at %v having fired %v", kind, at-1, end, order)
		}
		checked(t, e, string(kind)+": short of the far events")
		e.RunUntil(at)
		sameOrder(t, string(kind), order, []string{"backdated", "first"})
		if kind == SchedWheel {
			if q := e.q.(*tiered); q.base != uint64(at)>>bucketBits {
				t.Fatalf("window starts at bucket %d, want %d", q.base, uint64(at)>>bucketBits)
			}
		}
		checked(t, e, string(kind)+": jumped")
		e.Run()
		sameOrder(t, string(kind), order, []string{"backdated", "first", "later"})
		checked(t, e, string(kind)+": drained")
	}
}

// TestNearCancelInLiveBatch fills one bucket and cancels members of its
// dispatch batch while it is being served: a later member, then the last
// one, which leaves the batch empty before it drains.
func TestNearCancelInLiveBatch(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var order []Time
		rec := func() { order = append(order, e.Now()) }
		var mid, end Handle
		e.At(2048+10, func() {
			rec()
			mid.Cancel()
			if kind == SchedWheel && e.q.(*tiered).pos == 0 {
				t.Fatal("the bucket was not served as a batch")
			}
			checked(t, e, "canceled mid-batch")
		})
		mid = e.At(2048+500, rec)
		e.At(2048+20, func() {
			rec()
			end.Cancel()
			checked(t, e, "canceled the batch's last key")
		})
		end = e.At(2048+900, rec)
		e.At(4096, rec)
		e.Run()
		sameOrder(t, string(kind), order, []Time{2058, 2068, 4096})
		if e.Pending() != 0 {
			t.Fatalf("%s: %d pending after the drain", kind, e.Pending())
		}
		checked(t, e, string(kind)+": drained")
	}
}

// TestNearStampsJoinLiveBatch serves a batch that spans several instants
// of one bucket and, from its first event, schedules into it: a plain event
// at an earlier instant than the batch's later keys, an event holding a
// stamp reserved before the batch's other events were scheduled, and a
// backdated delivery. Each joins at its (time, schedAt, seq) position, as
// the heap orders them.
func TestNearStampsJoinLiveBatch(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedWheel} {
		e := NewEngineWith(kind)
		var order []string
		rec := func(name string) func() { return func() { order = append(order, name) } }
		const b = 8 * 1024 // the bucket [8192, 9216)
		e.RunUntil(100)
		reserved := e.Reserve() // stamp (100, seq 1)
		e.RunUntil(200)
		e.At(b+10, func() {
			order = append(order, "first")
			e.At(b+30, rec("plain"))
			e.AtStamped(b+50, reserved, funcHandler(rec("reserved")))
			e.AtHandlerFrom(b+50, 150, funcHandler(rec("backdated")))
			e.At(b+10, rec("now"))
			checked(t, e, string(kind)+": joined")
		})
		e.At(b+50, rec("b+50"))
		e.At(b+900, rec("b+900"))
		e.Run()
		sameOrder(t, string(kind), order,
			[]string{"first", "now", "plain", "reserved", "backdated", "b+50", "b+900"})
		checked(t, e, string(kind)+": drained")
	}
}

// TestNearDenseBucket fills one bucket far past the insertion-sort size,
// once pushed in deadline order (the list runs newest, so latest, first)
// and once against it, with every other instant shared by two events: the
// batch fires in (time, seq) order either way.
func TestNearDenseBucket(t *testing.T) {
	for _, ascending := range []bool{true, false} {
		e := NewEngine()
		const b, n = 16 * 1024, 512
		var got []int64
		for i := 0; i < n; i++ {
			off := Time(i)
			if !ascending {
				off = n - 1 - Time(i)
			}
			at := b + 2*(off/2)
			label := int64(i)
			e.At(at, func() { got = append(got, int64(e.Now())<<20|label) })
		}
		if q := e.q.(*tiered); q.occ[bucket(b)>>6] != 1<<(bucket(b)&63) || q.count != n {
			t.Fatal("test premise broken: all events in one bucket")
		}
		e.Run()
		if len(got) != n {
			t.Fatalf("fired %d of %d", len(got), n)
		}
		for i := 1; i < n; i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("ascending=%v: firing %d (%v, label %d) after (%v, label %d)", ascending, i,
					got[i]>>20, got[i]&(1<<20-1), got[i-1]>>20, got[i-1]&(1<<20-1))
			}
		}
		checked(t, e, "drained")
	}
}

// TestCheckInvariantsDetectsNearCorruption pokes the near tier's structure
// directly and checks each corruption is caught.
func TestCheckInvariantsDetectsNearCorruption(t *testing.T) {
	// populated has a live batch in bucket 2 (its first event fired), two
	// events in bucket 5 and one in the far tier.
	populated := func() (*Engine, *tiered) {
		e := NewEngine()
		for _, at := range []Time{2048 + 1, 2048 + 7, 2048 + 9, 5*1024 + 3, 5*1024 + 4, 2 * nearSpan} {
			e.At(at, func() {})
		}
		e.RunUntil(2048 + 1)
		q := e.q.(*tiered)
		if !q.live() || q.pos != 1 || q.far.count != 1 {
			t.Fatal("test premise broken: want a live batch and a far event")
		}
		checked(t, e, "populated")
		return e, q
	}
	for _, c := range []struct {
		name    string
		corrupt func(*Engine, *tiered)
		want    string
	}{
		{"summary drift", func(_ *Engine, q *tiered) { q.words |= 1 << 40 }, "summary bit 40"},
		{"occupancy-bit drift", func(_ *Engine, q *tiered) { q.occ[0] |= 1 << 9 }, "claims a different owning list"},
		{"bucket mismembership", func(_ *Engine, q *tiered) {
			// Relink bucket 5 under bucket 6's head.
			q.heads[6] = q.heads[5]
			q.occ[0] ^= 1<<5 | 1<<6
		}, "deadline selects 5"},
		{"bucket member in the live batch's bucket", func(e *Engine, q *tiered) {
			// Move the batch's last key, 2048+9, back into its bucket.
			idx := q.batch[len(q.batch)-1].idx()
			q.batch = q.batch[:len(q.batch)-1]
			q.push(e.slab.at(idx), idx)
		}, "outside the live dispatch batch"},
		{"batch out of order", func(_ *Engine, q *tiered) {
			q.batch[1], q.batch[2] = q.batch[2], q.batch[1]
		}, "out of (time, schedAt, seq) order"},
		{"batch key off its deadline", func(_ *Engine, q *tiered) { q.batch[1] += 1 << 32 }, "disagrees with its event's deadline"},
		{"window past the clock", func(_ *Engine, q *tiered) { q.base = 3 }, "past the clock's"},
		{"far floor inside the window", func(_ *Engine, q *tiered) { q.farFloor = 100 }, "far-tier floor"},
		{"far floor past a far event", func(_ *Engine, q *tiered) { q.farFloor = 2*nearSpan + 1 }, "before the tier's floor"},
		{"count drift", func(_ *Engine, q *tiered) { q.count++ }, "count says"},
	} {
		e, q := populated()
		c.corrupt(e, q)
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}
