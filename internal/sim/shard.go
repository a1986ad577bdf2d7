package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardGroup runs several engines in lockstep lookahead windows — the
// classic conservative (null-message-free, window-synchronized) PDES
// scheme. Each engine owns a spatial shard of the simulated system; the
// only interaction between shards is latency-bearing (a cross-shard link
// with delay ≥ Lookahead), so every engine may run freely through the
// half-open window [W, W+Lookahead) where W is the global minimum pending
// deadline: no event fired by another shard inside the window can affect
// it earlier than W+Lookahead.
//
// The protocol per round:
//
//  1. W = the minimum over the engines' NextEventTime and the Exchange's
//     undelivered handoffs; done when nothing is pending or W exceeds the
//     deadline.
//  2. Every shard delivers its inbox (Exchange.Deliver) and then runs
//     RunUntil(min(W+Lookahead-1, deadline)), on its own goroutine: the
//     calling goroutine runs shard 0, one goroutine per other shard runs
//     the rest. The hot path takes no locks and shares no mutable state.
//     Every handoff carries a delivery time ≥ W'+Lookahead, where W' is the
//     start of the window that generated it, strictly after the clock that
//     window left (W'+Lookahead-1), so a delivery never lands in a shard's
//     past.
//  3. With every shard parked, the calling goroutine turns the exchange:
//     the handoffs the window generated become the next window's inboxes.
//     Its serial work is O(shards) — it touches no handoff.
//  4. StopWhen (optional) ends the run early — the harness uses it to stop
//     after the first window in which every flow has completed.
//
// When Run returns, the calling goroutine has delivered every inbox, so the
// engines hold every handoff generated before the end.
//
// Each round advances the global window by at least Lookahead, so the run
// terminates. With one engine the loop degenerates to repeated RunUntil
// calls and fires events in exactly the sequential order, but it stops only
// between windows: the harness therefore drives a one-shard run's engine
// directly, stopping at the exact event that completes the last flow.
type ShardGroup struct {
	Engines   []*Engine
	Lookahead Duration // minimum cross-shard link latency; must be > 0

	// Exchange moves the cross-shard handoffs between windows.
	Exchange Exchange

	// StopWhen, if non-nil, is polled after each window with every shard
	// parked; returning true ends the run.
	StopWhen func() bool

	// Spin is how long a goroutine waiting for the next window, or for its
	// peers to finish one, polls (yielding its processor between polls)
	// before it parks. A parked goroutine takes an OS wake-up to resume,
	// which can cost more than a short window, but spinning pays only when
	// every shard has a processor of its own: otherwise the spinner holds
	// the processor a shard it waits for needs. Zero parks at once. Spinning
	// changes only when goroutines run, never the order events fire in.
	Spin time.Duration
}

// Exchange moves a ShardGroup's cross-shard handoffs from the window that
// generates them to the shard that receives them.
type Exchange interface {
	// Turn runs on the calling goroutine with every shard parked, after each
	// window: the handoffs the window generated become the inboxes that the
	// next Deliver calls schedule.
	Turn()
	// Pending returns the earliest delivery time among the handoffs not yet
	// delivered, or false when there are none.
	Pending() (Time, bool)
	// Deliver schedules shard i's inbox on shard i's engine. It runs on
	// shard i's goroutine before each window, concurrently with the other
	// shards' Deliver calls and windows, and, when Run returns, on the
	// calling goroutine for every shard with all of them parked.
	Deliver(i int)
}

// Run executes events on every engine up to deadline, synchronizing on
// lookahead windows, and returns the latest engine clock. On a normal
// (exhaustion or deadline) return every engine's clock has advanced to the
// deadline when one was given; on a StopWhen return the clocks rest at the
// end of the last window.
func (g *ShardGroup) Run(deadline Time) Time {
	if g.Lookahead <= 0 {
		panic("sim: ShardGroup requires a positive Lookahead")
	}
	c := g.startCrew()
	defer c.stop()

	stopped := false
	for {
		w := MaxTime
		for _, e := range g.Engines {
			if t, ok := e.NextEventTime(); ok && t < w {
				w = t
			}
		}
		if t, ok := g.Exchange.Pending(); ok && t < w {
			w = t
		}
		if w == MaxTime || w > deadline {
			break
		}
		target := deadline
		if wl := w.Add(g.Lookahead) - 1; wl < target {
			target = wl
		}
		c.release(target)
		g.window(0, target)
		c.wait()
		g.Exchange.Turn()
		if g.StopWhen != nil && g.StopWhen() {
			stopped = true
			break
		}
	}
	// Deliver what the last window generated, then turn the emptied
	// outboxes into the inboxes, so a later Run starts with nothing pending
	// outside the engines.
	for i := range g.Engines {
		g.Exchange.Deliver(i)
	}
	g.Exchange.Turn()
	// Clock parity with the sequential RunUntil contract: when the queue
	// drains (or the earliest event is past the deadline), the clock still
	// advances to the deadline. Nothing ≤ deadline is pending here, so these
	// calls move clocks without firing events.
	if !stopped && deadline != MaxTime {
		for _, e := range g.Engines {
			e.RunUntil(deadline)
		}
	}
	end := Time(0)
	for _, e := range g.Engines {
		if now := e.Now(); now > end {
			end = now
		}
	}
	return end
}

// window runs shard i's part of one window: its inbox, then its events up to
// target.
func (g *ShardGroup) window(i int, target Time) {
	g.Exchange.Deliver(i)
	g.Engines[i].RunUntil(target)
}

// Fired sums the event counts of every engine in the group.
func (g *ShardGroup) Fired() uint64 {
	var total uint64
	for _, e := range g.Engines {
		total += e.Fired()
	}
	return total
}

// crew is the goroutines of one Run: one per shard after shard 0, which runs
// on the calling goroutine. The caller publishes a window by storing its
// target and bumping epoch; each worker runs the window and counts itself
// out of left, and the worker that empties left wakes the caller.
type crew struct {
	g      *ShardGroup
	target Time // the published window's end; written before epoch moves
	quit   atomic.Bool
	epoch  atomic.Uint64
	left   atomic.Int32
	wake   []chan struct{} // per worker: a window was published
	done   chan struct{}   // left reached zero
	exited sync.WaitGroup
}

func (g *ShardGroup) startCrew() *crew {
	c := &crew{g: g, done: make(chan struct{}, 1)}
	for i := 1; i < len(g.Engines); i++ {
		wake := make(chan struct{}, 1)
		c.wake = append(c.wake, wake)
		c.exited.Add(1)
		go c.work(i, wake)
	}
	return c
}

// work is shard i's goroutine: wait for a window, run it, count out.
func (c *crew) work(i int, wake <-chan struct{}) {
	defer c.exited.Done()
	var seen uint64
	for {
		seen++
		await(func() bool { return c.epoch.Load() >= seen }, wake, c.g.Spin)
		if c.quit.Load() {
			return
		}
		c.g.window(i, c.target)
		if c.left.Add(-1) == 0 {
			signal(c.done)
		}
	}
}

// release publishes a window ending at target to every worker.
func (c *crew) release(target Time) {
	c.target = target
	c.left.Store(int32(len(c.wake)))
	c.publish()
}

// wait returns once every worker has finished the published window.
func (c *crew) wait() {
	await(func() bool { return c.left.Load() == 0 }, c.done, c.g.Spin)
}

// stop ends every worker and waits for them to exit. A worker still inside
// a window (when shard 0 panicked) finishes it first.
func (c *crew) stop() {
	c.quit.Store(true)
	c.publish()
	c.exited.Wait()
}

func (c *crew) publish() {
	c.epoch.Add(1)
	for _, w := range c.wake {
		signal(w)
	}
}

// signal leaves a wake-up token in ch without blocking. A full buffer
// already holds one, which is as good.
func signal(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// await returns once ready reports true: it polls for up to spin, yielding
// the processor between polls, then parks on wake. Whoever makes ready true
// signals wake afterwards, so a parked waiter always finds a token; a token
// left over from a wake-up that a poll beat only costs one extra check of
// ready before the waiter parks again. No wake-up is lost either way.
func await(ready func() bool, wake <-chan struct{}, spin time.Duration) {
	if spin > 0 && !ready() {
		until := time.Now().Add(spin)
		for !ready() && time.Now().Before(until) {
			runtime.Gosched()
		}
	}
	for !ready() {
		<-wake
	}
}
