package sim

// Timer is a rearmable one-shot timer: a single long-lived object that can be
// scheduled, canceled, and scheduled again without the cancel-and-reallocate
// churn of calling Engine.After repeatedly. It implements Handler and fires
// a Handler, so arming it reuses a pooled engine event and a Timer allocates
// nothing in its whole life.
//
// A Timer is meant to be embedded by value in per-flow or per-port state,
// and its owner passes a zero-state view of itself as the Handler: a named
// type over the owner's struct whose Fire calls the owner's method, so the
// cast pointer selects what runs and binds no closure:
//
//	type flow struct{ rto sim.Timer }
//	type flowTimeout flow
//	func (v *flowTimeout) Fire() { (*flow)(v).onTimeout() }
//
//	f.rto.Init(eng, (*flowTimeout)(f))
//	f.rto.Reset(3 * sim.Millisecond)
//
// The handler may call Reset to rearm the timer for a later deadline. A
// Timer is single-shot: after firing it stays idle until rearmed. Not safe
// for concurrent use, like the Engine itself.
type Timer struct {
	eng  *Engine
	fire Handler

	// The pending event's Handle less its engine, so a Timer is four words:
	// slot is the event's slab index plus one, zero while the timer is idle.
	slot, gen uint32
}

// handle returns the pending event's Handle, or the zero Handle when idle.
func (t *Timer) handle() Handle {
	if t.slot == 0 {
		return Handle{}
	}
	return Handle{eng: t.eng, idx: t.slot - 1, gen: t.gen}
}

// NewTimer returns an armed-capable timer; it does not schedule anything.
func NewTimer(eng *Engine, fire Handler) *Timer {
	t := &Timer{}
	t.Init(eng, fire)
	return t
}

// Init binds the timer to an engine and the handler its deadline fires. It
// must be called once before the first Reset, and must not be called on an
// armed timer.
func (t *Timer) Init(eng *Engine, fire Handler) {
	if t.Pending() {
		panic("sim: Init on an armed Timer")
	}
	t.eng = eng
	t.fire = fire
}

// Fire implements Handler; the engine calls it when the deadline arrives.
// The pending handle is cleared before the bound handler runs so it can
// immediately rearm the timer.
func (t *Timer) Fire() {
	t.slot = 0
	t.fire.Fire()
}

// Reset (re)arms the timer to fire d from now, replacing any pending
// deadline. A negative d panics.
func (t *Timer) Reset(d Duration) { t.ResetAt(t.eng.Now().Add(d)) }

// ResetAt (re)arms the timer to fire at absolute time at, replacing any
// pending deadline. Scheduling in the past panics.
func (t *Timer) ResetAt(at Time) {
	t.handle().Cancel()
	h := t.eng.AtHandler(at, t)
	t.slot, t.gen = h.idx+1, h.gen
}

// Stop cancels the pending deadline, if any. The timer can be rearmed later.
func (t *Timer) Stop() {
	t.handle().Cancel()
	t.slot = 0
}

// Now returns the current time of the timer's engine.
func (t *Timer) Now() Time { return t.eng.Now() }

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.handle().Pending() }

// When returns the pending deadline, or zero if the timer is idle.
func (t *Timer) When() Time { return t.handle().Time() }
