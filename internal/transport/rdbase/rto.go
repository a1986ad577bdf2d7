package rdbase

import "github.com/aeolus-transport/aeolus/internal/sim"

// RTO is the receiver-driven retransmission-timeout lifecycle shared by the
// transports: a rearmable idle detector on the pooled sim.Timer. Arm starts
// (or restarts) the countdown; Touch records activity; when the timer fires
// with no activity for a full period, Expire fires and the timer rearms.
// Like the Timer, an RTO allocates nothing: it hands its timer a view of
// itself, and its owner hands it a view of the owner as Expire. It reads
// the clock through its timer, which holds the engine, so an RTO is 72
// bytes: every Rx holds one, and the tables keep every flow's for the run.
//
// Stop and Disarm end the lifecycle in two ways matching the two shutdown
// idioms of the transports: Stop cancels the pending timer event outright
// (receiver completion), while Disarm only marks the lifecycle dead and lets
// an already-scheduled firing lapse as a no-op without rearming (NDP's
// sender learns of completion from the receiver path, outside its own timer
// callback).
type RTO struct {
	tm      sim.Timer
	period  sim.Duration
	last    sim.Time
	stopped bool

	// Expire is the policy hook fired when a full period passed with no
	// Touch. The RTO rearms after Expire returns.
	Expire sim.Handler
}

// rtoFire is the Handler view of an RTO its timer fires.
type rtoFire RTO

func (v *rtoFire) Fire() { (*RTO)(v).fire() }

// Init binds the RTO to the engine with its period and expiry policy. A
// zero or negative period disables the lifecycle: Arm becomes a no-op.
func (r *RTO) Init(eng *sim.Engine, period sim.Duration, expire sim.Handler) {
	r.period = period
	r.Expire = expire
	r.tm.Init(eng, (*rtoFire)(r))
}

// Arm starts (or restarts) the countdown.
func (r *RTO) Arm() {
	if r.period > 0 {
		r.tm.Reset(r.period)
	}
}

// Touch records activity, deferring expiry by a full period from now.
func (r *RTO) Touch() { r.last = r.tm.Now() }

// Stop ends the lifecycle and cancels the pending timer event.
func (r *RTO) Stop() {
	r.stopped = true
	r.tm.Stop()
}

// Disarm ends the lifecycle without touching the pending timer event: an
// already-scheduled firing runs as a no-op and does not rearm.
func (r *RTO) Disarm() { r.stopped = true }

// Pending reports whether a timer event is scheduled.
func (r *RTO) Pending() bool { return r.tm.Pending() }

func (r *RTO) fire() {
	if r.stopped {
		return
	}
	if r.tm.Now().Sub(r.last) >= r.period {
		r.Expire.Fire()
	}
	r.Arm()
}
