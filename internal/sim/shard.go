package sim

import "sync"

// ShardGroup runs several engines in lockstep lookahead windows — the
// classic conservative (null-message-free, barrier-synchronized) PDES
// scheme. Each engine owns a spatial shard of the simulated system; the
// only interaction between shards is latency-bearing (a cross-shard link
// with delay ≥ Lookahead), so every engine may run freely through the
// half-open window [W, W+Lookahead) where W is the global minimum pending
// deadline: no event fired by another shard inside the window can affect
// it earlier than W+Lookahead.
//
// The protocol per round:
//
//  1. W = min over engines of NextEventTime; done when nothing is pending
//     or W exceeds the deadline.
//  2. Every engine runs RunUntil(min(W+Lookahead-1, deadline)) on its own
//     goroutine — the intra-shard hot path takes no locks and shares no
//     mutable state.
//  3. With all workers parked, Barrier runs on the coordinating goroutine:
//     it exchanges the cross-shard handoffs generated during the window.
//     Every handoff carries a delivery time ≥ W+Lookahead, which is
//     strictly after every engine's clock (W+Lookahead-1), so scheduling
//     them can never violate the no-past-events invariant.
//  4. StopWhen (optional) ends the run early — the harness uses it to stop
//     at the first barrier where every flow has completed.
//
// Each round advances the global window by at least Lookahead, so the run
// terminates. With one engine the loop degenerates to repeated RunUntil
// calls and fires events in exactly the sequential order, but it stops only
// at a barrier: the harness therefore drives a one-shard run's engine
// directly, stopping at the exact event that completes the last flow.
type ShardGroup struct {
	Engines   []*Engine
	Lookahead Duration // minimum cross-shard link latency; must be > 0

	// Barrier runs between windows with every worker parked. It merges and
	// schedules the pending cross-shard handoffs in deterministic order.
	Barrier func()

	// StopWhen, if non-nil, is polled after each Barrier; returning true
	// ends the run.
	StopWhen func() bool
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
	n := len(g.Engines)
	targets := make([]chan Time, n)
	var wg sync.WaitGroup
	for i := range targets {
		targets[i] = make(chan Time)
	}
	for i, e := range g.Engines {
		go func(e *Engine, ch <-chan Time) {
			for t := range ch {
				e.RunUntil(t)
				wg.Done()
			}
		}(e, targets[i])
	}
	defer func() {
		for _, ch := range targets {
			close(ch)
		}
	}()

	stopped := false
	for {
		w := MaxTime
		for _, e := range g.Engines {
			if t, ok := e.NextEventTime(); ok && t < w {
				w = t
			}
		}
		if w == MaxTime || w > deadline {
			break
		}
		target := deadline
		if wl := w.Add(g.Lookahead) - 1; wl < target {
			target = wl
		}
		wg.Add(n)
		for _, ch := range targets {
			ch <- target
		}
		wg.Wait()
		if g.Barrier != nil {
			g.Barrier()
		}
		if g.StopWhen != nil && g.StopWhen() {
			stopped = true
			break
		}
	}
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

// Fired sums the event counts of every engine in the group.
func (g *ShardGroup) Fired() uint64 {
	var total uint64
	for _, e := range g.Engines {
		total += e.Fired()
	}
	return total
}
