package sim

import (
	"fmt"
)

// Handler is what every event runs: an object implementing Fire is
// dispatched directly when its event comes due. Hot-path callers (port
// serialization, packet delivery, timers) implement Handler on long-lived
// objects so that scheduling captures no environment; At and After wrap
// their closure as a funcHandler.
type Handler interface{ Fire() }

// funcHandler is the Handler view of a closure. A func value is
// pointer-shaped, so storing one in a Handler allocates nothing.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event flag bits. Fired and canceled survive release so stale handles keep
// reading an event's final state truthfully until the slot is reissued.
const (
	evFired uint8 = 1 << iota
	evCanceled
)

// Event is a scheduled callback, a 64-byte slot in the engine's slab arena.
// Events are owned by the engine and recycled through a free list once they
// resolve (fire or cancel); callers refer to them only through the
// generation-checked Handle returned by At/After, never by raw pointer or
// index. The layout packs the dispatch keys (time, schedAt, seq) and the
// handler word into one cache line.
type Event struct {
	time Time
	seq  uint64
	h    Handler

	// schedAt is the simulated instant the scheduling decision was made —
	// the secondary ordering key between seq and time. On the normal paths it
	// equals the engine clock when the seq was issued (at the schedule call,
	// or at Reserve for an event scheduled later with AtStamped), which makes
	// it nondecreasing in seq and therefore invisible: (time, schedAt, seq)
	// order is exactly the historical (time, seq) order. Its purpose is
	// AtHandlerFrom, where a sharded runner backdates a cross-shard delivery,
	// scheduled on its destination between windows, to the instant the
	// source shard generated it, so
	// that same-timestamp ties against locally scheduled events resolve in
	// the same order a single sequential engine would have produced.
	schedAt Time

	// Scheduler residency. The heap uses index, the event's heap position;
	// the two tiers link the slot into a list (a near-tier bucket or a
	// far-tier slot, through the slab's links) or hold it in the near
	// tier's dispatch batch, as in says. An event outside any queue has
	// index -1 and in == listNone.
	index int32
	in    uint16

	gen   uint32 // bumped each time the slot is (re)issued
	flags uint8

	_ [8]byte // keeps the event one 64-byte cache line
}

func (ev *Event) fired() bool    { return ev.flags&evFired != 0 }
func (ev *Event) canceled() bool { return ev.flags&evCanceled != 0 }
func (ev *Event) resolved() bool { return ev.flags&(evFired|evCanceled) != 0 }

// Handle is a value-type reference to a scheduled event: the owning engine
// plus the event's slab index and generation. It stays truthful across slot
// recycling: once the underlying slot is reissued for a later scheduling,
// the generation no longer matches and every method on the stale handle
// becomes an inert no-op. The zero Handle refers to nothing.
type Handle struct {
	eng *Engine
	idx uint32
	gen uint32
}

// deref returns the referenced event, or nil when the handle is zero or
// stale (the slot has been reissued).
func (h Handle) deref() *Event {
	if h.eng == nil {
		return nil
	}
	if ev := h.eng.slab.at(h.idx); ev.gen == h.gen {
		return ev
	}
	return nil
}

// Time returns the instant the event is (or was) scheduled to fire, or zero
// for a stale or empty handle.
func (h Handle) Time() Time {
	if ev := h.deref(); ev != nil {
		return ev.time
	}
	return 0
}

// Pending reports whether the event is still waiting to fire.
func (h Handle) Pending() bool {
	ev := h.deref()
	return ev != nil && !ev.resolved()
}

// Fired reports whether the event ran. A fired event reports Fired even if
// Cancel was called afterwards — cancellation cannot rewrite history.
func (h Handle) Fired() bool {
	ev := h.deref()
	return ev != nil && ev.fired()
}

// Canceled reports whether the event was canceled before it fired.
func (h Handle) Canceled() bool {
	ev := h.deref()
	return ev != nil && ev.canceled() && !ev.fired()
}

// Cancel prevents the event from firing and removes it from the scheduler
// immediately — O(1) on the wheel, O(log n) on the heap — so the event
// slot recycles at once and Pending drops by one. Canceling an
// already-fired event, an already-canceled event, or through a stale handle
// is a no-op.
func (h Handle) Cancel() {
	ev := h.deref()
	if ev == nil || ev.resolved() {
		return
	}
	ev.flags |= evCanceled
	h.eng.q.remove(ev, h.idx)
	h.eng.release(ev, h.idx)
}

// Stamp is an event's dispatch position within its instant: the (schedAt,
// seq) pair that orders events sharing a deadline. Reserve hands one out
// ahead of time, so a caller can decide later whether the event is needed
// at all and, if it is, schedule it with AtStamped exactly where it would
// have fired had it been scheduled at once.
type Stamp struct {
	at  Time
	seq uint64
}

// before reports whether s dispatches ahead of o at a shared instant.
func (s Stamp) before(o Stamp) bool { return s.at < o.at || s.at == o.at && s.seq < o.seq }

// Engine is the discrete-event scheduler. It is not safe for concurrent use;
// the whole simulation runs on one goroutine.
type Engine struct {
	slab eventSlab
	q    scheduler
	now  Time
	// firing is the stamp of the event being dispatched. After a RunUntil
	// that finds nothing more due it is (now, last seq issued), which no
	// stamp issued so far comes after: every event at or before now has then
	// fired. See Passed.
	firing  Stamp
	nextSeq uint64
	fired   uint64
	stopped bool
}

// NewEngine returns an engine with the clock at zero, no pending events, and
// the default (two-tier) scheduler.
func NewEngine() *Engine { return NewEngineWith(DefaultScheduler) }

// NewEngineWith returns an engine backed by the named scheduler. Both kinds
// fire events in identical (time, schedAt, seq) order; see SchedulerKind.
// Seq 0 is never issued, so the zero firing stamp precedes every event: at
// time zero, before the first dispatch, nothing has passed.
func NewEngineWith(kind SchedulerKind) *Engine {
	e := &Engine{nextSeq: 1}
	e.slab.freeHead = nilIdx
	switch kind {
	case SchedHeap:
		e.q = &heapQueue{sl: &e.slab}
	case SchedWheel, "":
		e.q = newTiered(&e.slab)
	default:
		panic(fmt.Sprintf("sim: unknown scheduler kind %q", kind))
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to fire. Cancellation removes
// an event from the scheduler immediately, so every counted event will fire:
// a simulation with Pending() == 0 will fire nothing more.
func (e *Engine) Pending() int { return e.q.size() }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SchedStats snapshots the event queue's occupancy: current and peak pending
// events. The peak is maintained inline by the scheduler, so this is a
// cheap read at any point during or after a run.
func (e *Engine) SchedStats() SchedStats { return e.q.stats() }

// EventAllocs returns how many event slots the engine has carved from its
// slab. In steady state this stays flat while Fired keeps climbing: every
// resolved event is recycled.
func (e *Engine) EventAllocs() uint64 { return e.slab.carved }

// NextEventTime returns the earliest pending deadline without firing
// anything, or false when no events are pending. The sharded runner reads it
// between windows to compute the global minimum the next lookahead window
// starts from; it never mutates the queue.
func (e *Engine) NextEventTime() (Time, bool) { return e.q.next() }

// release returns a resolved (fired or canceled) event to the slab's free
// list. The handler reference is dropped so the engine does not pin closures
// or handlers alive; the generation is NOT bumped here — it bumps on
// reissue, so stale handles keep reading the event's final state truthfully
// until the slot is reused.
func (e *Engine) release(ev *Event, idx uint32) {
	ev.h = nil
	e.slab.free(idx)
}

// Reserve takes the stamp a schedule made now would get and consumes its
// seq, so every later schedule dispatches after it at a shared instant.
func (e *Engine) Reserve() Stamp {
	s := Stamp{e.now, e.nextSeq}
	e.nextSeq++
	return s
}

// Passed reports whether an event at t holding stamp s would already have
// fired: t is behind the clock, or t is now and s does not come after the
// stamp of the event being dispatched.
func (e *Engine) Passed(t Time, s Stamp) bool {
	return t < e.now || t == e.now && !e.firing.before(s)
}

// AtStamped schedules h.Fire at absolute time t holding the stamp s, which
// Reserve issued earlier: the event fires exactly where one scheduled at the
// reservation would have. Every schedule goes through here; the plain ones
// reserve their stamp on the spot. Scheduling an event that has already
// passed (see Passed), or stamping it later than its deadline, panics —
// either is always a logic error in a simulation.
func (e *Engine) AtStamped(t Time, s Stamp, h Handler) Handle {
	if e.Passed(t, s) {
		panic(fmt.Sprintf("sim: scheduling event at %v (stamp %v) before now %v", t, s, e.now))
	}
	if s.at > t {
		panic(fmt.Sprintf("sim: schedule stamp %v after deadline %v", s.at, t))
	}
	ev, idx := e.slab.alloc()
	ev.gen++ // invalidates every handle to the slot's previous life
	ev.time, ev.schedAt, ev.seq = t, s.at, s.seq
	ev.flags = 0
	ev.h = h
	e.q.schedule(ev, idx)
	return Handle{eng: e, idx: idx, gen: ev.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics —
// that is always a logic error in a simulation.
func (e *Engine) At(t Time, fn func()) Handle { return e.AtStamped(t, e.Reserve(), funcHandler(fn)) }

// After schedules fn to run d from now. A negative d panics.
func (e *Engine) After(d Duration, fn func()) Handle {
	return e.AtStamped(e.now.Add(d), e.Reserve(), funcHandler(fn))
}

// AtHandler schedules h.Fire to run at absolute time t without allocating a
// closure. Scheduling in the past panics.
func (e *Engine) AtHandler(t Time, h Handler) Handle { return e.AtStamped(t, e.Reserve(), h) }

// AfterHandler schedules h.Fire to run d from now without allocating a
// closure. A negative d panics.
func (e *Engine) AfterHandler(d Duration, h Handler) Handle {
	return e.AtStamped(e.now.Add(d), e.Reserve(), h)
}

// AtHandlerFrom schedules h.Fire at absolute time t, stamping the event as if
// it had been scheduled at the (possibly earlier) instant from. The stamp only
// influences tie-breaking among events sharing a deadline: events fire in
// (time, schedAt, seq) order, and on a lone engine schedAt is nondecreasing in
// seq, so backdating is the one way the stamp's instant can ever matter. The
// sharded runner uses it when it transfers a cross-shard packet delivery onto
// its destination engine between windows: stamping the source shard's
// generation instant restores the scheduling order a sequential run would
// have had, so same-timestamp collisions at contended queues resolve
// identically. As for AtStamped, an event that has already passed, or a from
// after t, panics.
func (e *Engine) AtHandlerFrom(t, from Time, h Handler) Handle {
	s := e.Reserve()
	s.at = from
	return e.AtStamped(t, s, h)
}

// Stop makes the current Run call return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty or Stop is
// called. It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// CheckInvariants verifies the engine's internal bookkeeping: the scheduler's
// own structure (heap order and index bookkeeping, or the two tiers' bucket
// and slot membership, occupancy bitmaps, window bounds, batch order and
// cascade currency), that no pending event is behind the clock, and that
// the slab's free list holds only resolved, fully unlinked events. It
// returns nil when everything is coherent; the audit layer calls it at
// drain time, and it is cheap enough to call in tests after every run.
func (e *Engine) CheckInvariants() error {
	if err := e.q.check(e.now); err != nil {
		return err
	}
	if e.q.size() < 0 {
		return fmt.Errorf("sim: negative pending count %d", e.q.size())
	}
	seen := uint64(0)
	for i := e.slab.freeHead; i != nilIdx; {
		ev := e.slab.at(i)
		if ev.index != -1 {
			return fmt.Errorf("sim: free-list entry %d carries heap index %d", i, ev.index)
		}
		if ev.in != listNone {
			return fmt.Errorf("sim: free-list entry %d still claims scheduler list %d", i, ev.in)
		}
		if ev.h != nil {
			return fmt.Errorf("sim: free-list entry %d retains a callback", i)
		}
		if !ev.resolved() {
			return fmt.Errorf("sim: free-list entry %d was never resolved", i)
		}
		if seen++; seen > e.slab.carved {
			return fmt.Errorf("sim: free-list cycle after %d entries", seen)
		}
		i = e.slab.link(i).next
	}
	if seen != uint64(e.slab.freeLen) {
		return fmt.Errorf("sim: free-list holds %d entries but freeLen says %d", seen, e.slab.freeLen)
	}
	if seen > e.slab.carved {
		return fmt.Errorf("sim: free-list %d exceeds total allocations %d", seen, e.slab.carved)
	}
	return nil
}

// RunUntil executes events with timestamps ≤ deadline, then sets the clock to
// the deadline (or to the last event time if the queue drained earlier and the
// deadline is MaxTime). It returns the final simulated time.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		idx := e.q.popDue(deadline)
		if idx == nilIdx {
			break
		}
		ev := e.slab.at(idx)
		e.now = ev.time
		e.firing = Stamp{ev.schedAt, ev.seq}
		ev.flags |= evFired
		h := ev.h
		// Release before firing: the handler may immediately reschedule and
		// reuse this very slot (the common timer-rearm pattern), which is
		// safe because reissue bumps the generation.
		e.release(ev, idx)
		h.Fire()
		e.fired++
	}
	if !e.stopped && e.now <= deadline {
		// Nothing at or before the deadline is pending, so every event at or
		// before the (possibly advanced) clock has fired.
		if deadline != MaxTime {
			e.now = deadline
		}
		e.firing = Stamp{e.now, e.nextSeq - 1}
	}
	return e.now
}
