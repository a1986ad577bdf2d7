package netem

import (
	"fmt"
	"math/rand/v2"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// This file is the link-impairment layer: a per-port controller that injects
// the failure modes a healthy fabric never exhibits — random,
// deterministic-nth and Gilbert-Elliott (bursty, correlated) packet loss,
// blackholes, full link failure (queue frozen), rate degradation, and added
// delay with jitter. Impairments compose on one port, can be reconfigured
// mid-run (scripted via Timeline in timeline.go), and stay visible to the
// conservation auditor: every injected discard is a refusal under
// DropImpairment, counted and released by Port.Send like any other drop, so
// byte accounting and drop-counter coherence hold under injected chaos.
//
// Composition order on the arrival path is fixed: link failure, then
// blackhole, then the loss process (every-nth, Gilbert-Elliott, or uniform —
// mutually exclusive), then the port's own discipline; Port.Send asks the
// controller before it offers a packet to the queue. A failed link also
// freezes the serializer (Port.kick idles until Restore). Rate caps and
// delay/jitter act on the serializer side (the Port consults the controller
// when it transmits) and never discard packets.

// LinkImpairment is the impairment controller of one port. Install it with
// InstallImpairment, then configure it directly (tests) or let a Timeline
// drive it (experiments). All mutators are safe to call mid-run from
// simulation events.
type LinkImpairment struct {
	port *Port
	rng  *rand.Rand

	origRate sim.Rate

	// Loss process: matching packets are dropped every Nth arrival when
	// nth > 0, else with probability lossRate. ge switches to the
	// Gilbert-Elliott two-state chain instead; the three processes are
	// mutually exclusive (SetLoss and SetGE clear each other).
	lossRate float64
	nth      int64
	nthSeen  int64
	match    func(*Packet) bool

	// Gilbert-Elliott correlated loss: a two-state (good/bad) Markov chain
	// advanced once per matching arrival. geP is the good→bad transition
	// probability, geR the bad→good recovery probability; geGood and geBad
	// are the per-packet loss probabilities inside each state. The stationary
	// loss rate is (r·good + p·bad)/(p+r), with mean bad-burst length 1/r —
	// the knob independent random loss does not have.
	ge        bool
	geBad     bool // current chain state (false = good)
	geP, geR  float64
	geGood    float64
	geBadLoss float64

	down      bool // link failed: arrivals dropped, queue frozen
	blackhole bool // arrivals dropped, queue keeps draining

	addDelay sim.Duration
	jitter   sim.Duration
}

// InstallImpairment hangs an impairment controller off the port and returns
// it. The zero configuration impairs nothing; seed drives the (per-port) loss
// and jitter processes deterministically. The port's queue and any tap are
// untouched, so instrumentation may come before or after.
func InstallImpairment(pt *Port, seed uint64) *LinkImpairment {
	li := &LinkImpairment{
		port:     pt,
		rng:      sim.NewRand(seed, 0x105e),
		origRate: pt.Rate,
	}
	pt.Imp = li
	return li
}

// SetLoss configures the loss process for matching packets (nil match means
// every packet): drop every nth arrival when nth > 0, else drop with
// probability rate. The nth counter restarts, so reconfiguring mid-run is
// reproducible.
func (li *LinkImpairment) SetLoss(rate float64, nth int64, match func(*Packet) bool) {
	li.lossRate, li.nth, li.nthSeen, li.match = rate, nth, 0, match
	li.ge = false
}

// SetGE configures Gilbert-Elliott correlated loss for matching packets (nil
// match means every packet): a two-state chain that moves good→bad with
// probability p and bad→good with probability r at each matching arrival,
// dropping with probability good in the good state and bad in the bad state.
// The chain restarts in the good state, so reconfiguring mid-run is
// reproducible; any uniform or every-nth loss process is cleared.
func (li *LinkImpairment) SetGE(p, r, good, bad float64, match func(*Packet) bool) {
	li.ge, li.geBad = true, false
	li.geP, li.geR, li.geGood, li.geBadLoss = p, r, good, bad
	li.lossRate, li.nth, li.nthSeen, li.match = 0, 0, 0, match
}

// Fail takes the link down: arrivals are dropped and the queue freezes (the
// backlog is preserved and drains after Restore), modeling a dead link whose
// buffer survives.
func (li *LinkImpairment) Fail() { li.down = true }

// SetBlackhole switches silent discard of all arrivals on or off; unlike
// Fail, the queue keeps draining.
func (li *LinkImpairment) SetBlackhole(on bool) { li.blackhole = on }

// Restore brings the link back up, clearing failure and blackhole states, and
// kicks the port so a frozen backlog resumes draining.
func (li *LinkImpairment) Restore() {
	li.down, li.blackhole = false, false
	li.port.kick()
}

// SetRate degrades the link to the given rate; 0 restores the rate the port
// had when the impairment was installed. Takes effect from the next
// serialization.
func (li *LinkImpairment) SetRate(cap sim.Rate) {
	if cap <= 0 {
		li.port.Rate = li.origRate
		return
	}
	li.port.Rate = cap
}

// SetDelay adds a fixed extra propagation delay plus a uniformly distributed
// jitter in [0, jitter] to every transmitted packet. Jitter can reorder
// deliveries — that is the point.
func (li *LinkImpairment) SetDelay(add, jitter sim.Duration) {
	li.addDelay, li.jitter = add, jitter
}

// Port returns the impaired port.
func (li *LinkImpairment) Port() *Port { return li.port }

// dropOnArrival decides the fate of an arriving packet.
func (li *LinkImpairment) dropOnArrival(p *Packet) bool {
	if li.down || li.blackhole {
		return true
	}
	if li.match != nil && !li.match(p) {
		return false
	}
	if li.nth > 0 {
		li.nthSeen++
		if li.nthSeen%li.nth == 0 {
			return true
		}
		return false
	}
	if li.ge {
		// Sample the loss under the current state, then advance the chain —
		// the textbook per-packet discretization, one transition per arrival.
		prob := li.geGood
		if li.geBad {
			prob = li.geBadLoss
		}
		drop := prob > 0 && li.rng.Float64() < prob
		if li.geBad {
			if li.geR > 0 && li.rng.Float64() < li.geR {
				li.geBad = false
			}
		} else if li.geP > 0 && li.rng.Float64() < li.geP {
			li.geBad = true
		}
		return drop
	}
	return li.lossRate > 0 && li.rng.Float64() < li.lossRate
}

// wireDelay returns the extra delivery delay for one transmission.
func (li *LinkImpairment) wireDelay() sim.Duration {
	d := li.addDelay
	if li.jitter > 0 {
		d += sim.Duration(li.rng.Int64N(int64(li.jitter) + 1))
	}
	return d
}

// Packet match classes for impairment targeting. MatchClass resolves the
// class names accepted by the timeline format.
func MatchClass(name string) (func(*Packet) bool, error) {
	switch name {
	case "", "all":
		return nil, nil
	case "data":
		return func(p *Packet) bool { return p.Type == Data }, nil
	case "ctrl":
		return func(p *Packet) bool { return p.Type.IsControl() }, nil
	case "sched":
		return func(p *Packet) bool { return p.Scheduled }, nil
	case "unsched":
		return func(p *Packet) bool { return p.Type == Data && !p.Scheduled }, nil
	default:
		return nil, fmt.Errorf("netem: unknown match class %q (want all, data, ctrl, sched or unsched)", name)
	}
}
