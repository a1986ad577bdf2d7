package sim

import "testing"

// A handle to a fired event must keep reporting Fired — and Cancel through it
// must not rewrite history — until the event object is reissued.
func TestCancelAfterFireReportsFired(t *testing.T) {
	e := NewEngine()
	h := e.At(10, func() {})
	e.Run()
	if !h.Fired() {
		t.Fatal("Fired() = false after the event ran")
	}
	h.Cancel() // must be a no-op
	if h.Canceled() {
		t.Fatal("Canceled() = true on an event that actually ran")
	}
	if !h.Fired() {
		t.Fatal("Cancel after fire erased Fired()")
	}
	if h.Pending() {
		t.Fatal("Pending() = true on a fired event")
	}
}

// Once a resolved event object is reissued for a new scheduling, every stale
// handle to its previous life must go inert: queries return false and Cancel
// must not touch the new occupant.
func TestStaleHandleIsInertAfterRecycle(t *testing.T) {
	e := NewEngine()
	h1 := e.At(10, func() {})
	e.Run()
	if e.EventAllocs() != 1 {
		t.Fatalf("EventAllocs() = %d, want 1", e.EventAllocs())
	}

	secondFired := false
	h2 := e.At(20, func() { secondFired = true })
	if e.EventAllocs() != 1 {
		t.Fatalf("EventAllocs() = %d after reschedule, want 1 (object not recycled)", e.EventAllocs())
	}
	if h1.idx != h2.idx {
		t.Fatal("test premise broken: second event did not reuse the first object")
	}
	if h1.gen == h2.gen {
		t.Fatal("generation not bumped on reissue")
	}

	// The stale handle must be fully inert.
	if h1.Pending() || h1.Fired() || h1.Canceled() {
		t.Fatal("stale handle still reports state from a previous life")
	}
	h1.Cancel() // must NOT cancel the new occupant
	if !h2.Pending() {
		t.Fatal("stale Cancel hit the recycled event's new occupant")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stale cancel: %v", err)
	}
	e.Run()
	if !secondFired {
		t.Fatal("recycled event did not fire")
	}
}

// Cancel is a true removal: the object recycles immediately (no
// canceled-but-undrained residency), and a stale handle to it keeps
// reporting Canceled until the object is reused, then goes inert.
func TestStaleHandleAfterCancel(t *testing.T) {
	e := NewEngine()
	h1 := e.At(10, func() { t.Fatal("canceled event fired") })
	h1.Cancel()
	if !h1.Canceled() {
		t.Fatal("Canceled() = false before the object is reused")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0 (removal is immediate)", e.Pending())
	}
	h2 := e.At(15, func() {}) // reuses the canceled object at once
	if e.EventAllocs() != 1 {
		t.Fatalf("EventAllocs() = %d, want 1 (canceled object recycled immediately)", e.EventAllocs())
	}
	if h2.idx != h1.idx {
		t.Fatal("canceled event object was not recycled")
	}
	if h1.Canceled() {
		t.Fatal("stale handle still reports Canceled after reuse")
	}
	h1.Cancel() // stale cancel must not touch the new occupant
	if !h2.Pending() {
		t.Fatal("stale Cancel hit the recycled event's new occupant")
	}
	e.Run()
	if !h2.Fired() {
		t.Fatal("recycled event did not fire")
	}
}

func TestEngineEventAllocsSteadyState(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.After(1, func() {})
		e.Run()
	}
	if e.EventAllocs() != 1 {
		t.Fatalf("EventAllocs() = %d after 1000 sequential events, want 1", e.EventAllocs())
	}
	if e.Fired() != 1000 {
		t.Fatalf("Fired() = %d, want 1000", e.Fired())
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, funcHandler(func() { fired++ }))
	if tm.Pending() {
		t.Fatal("fresh timer is pending")
	}
	tm.Reset(10)
	if !tm.Pending() || tm.When() != 10 {
		t.Fatalf("armed timer: Pending=%v When=%v, want true, 10", tm.Pending(), tm.When())
	}
	tm.Reset(20) // rearm replaces the earlier deadline
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d times after double Reset, want 1", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("fired at %v, want 20", e.Now())
	}

	tm.Reset(5)
	tm.Stop()
	e.Run()
	if fired != 1 {
		t.Fatalf("stopped timer fired (count %d)", fired)
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}

	// Stop on an idle timer is a no-op.
	tm.Stop()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// The callback may rearm the timer from inside Fire — the classic
// self-pacing pattern. The whole sequence must cost one Event allocation.
func TestTimerRearmInCallback(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tm Timer
	tm.Init(e, funcHandler(func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			tm.Reset(10)
		}
	}))
	tm.Reset(10)
	end := e.Run()
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v, want 5 entries", ticks)
	}
	if end != 50 {
		t.Fatalf("end = %v, want 50", end)
	}
	if e.EventAllocs() != 1 {
		t.Fatalf("EventAllocs() = %d for a rearming timer, want 1", e.EventAllocs())
	}
}

func TestTimerInitOnArmedPanics(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, funcHandler(func() {}))
	tm.Reset(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Init on an armed timer did not panic")
		}
	}()
	tm.Init(e, funcHandler(func() {}))
}

// FuzzTimerChurn interleaves Reset/Stop/advance operations on a small set of
// timers against CheckInvariants. Any sequence of timer operations must keep
// the engine's bookkeeping coherent and never fire a stopped timer.
func FuzzTimerChurn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 3, 3, 3, 1, 4, 2, 5, 9, 9})
	f.Add([]byte{7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		const nTimers = 3
		fired := make([]int, nTimers)
		armedAt := make([]Time, nTimers) // expected deadline, 0 = idle
		timers := make([]*Timer, nTimers)
		for i := 0; i < nTimers; i++ {
			i := i
			timers[i] = NewTimer(e, funcHandler(func() {
				fired[i]++
				armedAt[i] = 0
			}))
		}
		for _, op := range ops {
			ti := int(op) % nTimers
			switch (op / 3) % 4 {
			case 0: // Reset relative
				d := Duration(1 + int64(op%7))
				timers[ti].Reset(d)
				armedAt[ti] = e.Now().Add(d)
			case 1: // Stop
				timers[ti].Stop()
				armedAt[ti] = 0
			case 2: // advance a little, firing due timers
				e.RunUntil(e.Now() + Time(op%5))
			case 3: // rearm to a farther absolute deadline
				at := e.Now() + Time(2+op%11)
				timers[ti].ResetAt(at)
				armedAt[ti] = at
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants after op %d: %v", op, err)
			}
			for i := 0; i < nTimers; i++ {
				if want := armedAt[i] != 0; timers[i].Pending() != want {
					t.Fatalf("timer %d Pending() = %v, want %v", i, timers[i].Pending(), want)
				}
				if armedAt[i] != 0 && timers[i].When() != armedAt[i] {
					t.Fatalf("timer %d When() = %v, want %v", i, timers[i].When(), armedAt[i])
				}
			}
		}
		before := make([]int, nTimers)
		copy(before, fired)
		wasArmed := make([]bool, nTimers)
		for i := 0; i < nTimers; i++ {
			wasArmed[i] = armedAt[i] != 0
		}
		e.Run()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("invariants after drain: %v", err)
		}
		for i := 0; i < nTimers; i++ {
			wantExtra := 0
			if wasArmed[i] {
				wantExtra = 1
			}
			if fired[i] != before[i]+wantExtra {
				t.Fatalf("timer %d fired %d times at drain, want %d", i, fired[i]-before[i], wantExtra)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain", e.Pending())
		}
	})
}

// viewOwner stands in for per-flow state that embeds a Timer and hands it a
// zero-state view of itself, as the transports do.
type viewOwner struct {
	tm    Timer
	fired int
}

type viewOwnerTimeout viewOwner

func (v *viewOwnerTimeout) Fire() { (*viewOwner)(v).fired++ }

// TestTimerViewAllocatesNothing: binding a timer to a pointer view, arming
// it and firing it allocate nothing once the engine's event slab holds a
// slot, so a flow's timers cost no closure each.
func TestTimerViewAllocatesNothing(t *testing.T) {
	e := NewEngine()
	o := &viewOwner{}
	cycle := func() {
		o.tm.Init(e, (*viewOwnerTimeout)(o))
		o.tm.Reset(10)
		e.Run()
	}
	cycle() // carve the engine's first event slot
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Init, Reset and a fire allocate %.1f objects, want 0", allocs)
	}
	if o.fired != 102 {
		t.Errorf("the timer fired %d times, want 102", o.fired)
	}
}
