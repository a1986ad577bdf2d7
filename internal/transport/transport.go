// Package transport provides the plumbing shared by every protocol in this
// repository: flow descriptors, payload segmentation, and the simulation
// environment (network, metrics, completion reporting) a protocol runs in.
//
// The three proactive transports (ExpressPass, Homa, NDP) live in
// subpackages and implement the Protocol interface; the Aeolus building
// block (internal/core) plugs into each of them.
package transport

import (
	"math/rand/v2"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Flow is one transfer in flight: a message of Size bytes from Src to Dst.
type Flow struct {
	ID    uint64
	Src   netem.NodeID
	Dst   netem.NodeID
	Size  int64
	Start sim.Time

	// PathID is the flow's ECMP hash for per-flow load balancing. Protocols
	// that spray per packet (NDP) ignore it.
	PathID uint32

	// Timeouts counts retransmission timeouts suffered by the flow.
	Timeouts int
}

// Path returns the PathID of one of the flow's packets: a fresh draw from
// spray when the sender sprays per packet, the flow's ECMP hash when spray
// is nil.
func (f *Flow) Path(spray *rand.Rand) uint32 {
	if spray != nil {
		return spray.Uint32()
	}
	return f.PathID
}

// Protocol is a transport implementation driving all hosts of a network.
// A single Protocol instance is every host's endpoint and holds the
// per-flow state of all of them, keyed by flow ID — logically distributed
// state in one object, as is conventional in packet-level simulators. It names every method the experiments harness
// calls, so a transport states its whole contract by satisfying it.
type Protocol interface {
	// Start injects a new flow at the sender. Callers must invoke it at
	// flow.Start simulated time.
	Start(f *Flow)

	// Register adds a flow descriptor without starting a sender, so the
	// receive path can look the flow up: the receiver shard's copy of a flow
	// whose sender runs on another shard.
	Register(f *Flow)

	// AuditInvariants checks every flow's Aeolus state machine for internal
	// consistency and returns one error per breach.
	AuditInvariants() []error

	FootprintReporter
}

// Env is the environment a protocol operates in: the built network plus the
// metric sinks. Exactly one Env exists per simulation run.
type Env struct {
	Net *netem.Network
	Eng *sim.Engine

	FCT   stats.FCTCollector
	Meter stats.ByteMeter

	// MSS is the maximum payload per data packet.
	MSS int

	// Done, when non-nil, is called once per completed flow.
	Done func(f *Flow, rec stats.FlowRecord)

	completed int
}

// NewEnv wires an environment around a built network.
func NewEnv(net *netem.Network, mss int) *Env {
	return &Env{Net: net, Eng: net.Eng, MSS: mss}
}

// Completed returns the number of flows that finished.
func (e *Env) Completed() int { return e.completed }

// Pkt returns a zeroed packet from the network's pool (or a fresh allocation
// when the network has none). Protocols build every wire packet through it;
// the fabric releases the packet when it terminates (delivery or drop).
func (e *Env) Pkt() *netem.Packet { return e.Net.Pool.Get() }

// IdealFCT returns the completion time of a flow of the given size alone on
// its path: half the base RTT (the one-way latency) plus the serialization
// of all its frames at the edge rate. This is the normalizer of the paper's
// "FCT slowdown" metric (Fig. 17).
func (e *Env) IdealFCT(size int64) sim.Duration {
	nseg := (size + int64(e.MSS) - 1) / int64(e.MSS)
	wire := size + nseg*netem.FrameOverhead
	// TxTime would overflow int64 picoseconds for multi-hundred-MB flows;
	// compute large serializations in floating point.
	var tx sim.Duration
	if wire < 1<<20 {
		tx = sim.TxTime(int(wire), e.Net.HostRate)
	} else {
		tx = sim.Duration(float64(wire) * 8 / float64(e.Net.HostRate) * float64(sim.Second))
	}
	return e.Net.BaseRTT/2 + tx
}

// FlowDone records a completed flow. Protocols call it exactly once per
// flow, at the instant the last payload byte reaches the receiver.
func (e *Env) FlowDone(f *Flow) {
	rec := stats.FlowRecord{
		ID:       f.ID,
		Size:     f.Size,
		Start:    f.Start,
		Finish:   e.Eng.Now(),
		IdealFCT: e.IdealFCT(f.Size),
		Timeouts: f.Timeouts,
	}
	e.FCT.Add(rec)
	e.completed++
	if e.Done != nil {
		e.Done(f, rec)
	}
}

// CountSent tallies a data transmission for the transfer-efficiency meter.
func (e *Env) CountSent(payload int) { e.Meter.SentPayload += int64(payload) }

// CountDelivered tallies unique delivered payload bytes.
func (e *Env) CountDelivered(payload int) { e.Meter.DeliveredPayload += int64(payload) }

// Segmenter slices a flow's payload into MSS-sized segments. Segment i
// covers bytes [i*MSS, i*MSS+SegLen(i)).
type Segmenter struct {
	Size int64
	MSS  int
}

// NumSegs returns the number of segments.
func (s Segmenter) NumSegs() int {
	return int((s.Size + int64(s.MSS) - 1) / int64(s.MSS))
}

// SegLen returns the payload length of segment i.
func (s Segmenter) SegLen(i int) int {
	if off := int64(i) * int64(s.MSS); off+int64(s.MSS) > s.Size {
		return int(s.Size - off)
	}
	return s.MSS
}

// Offset returns the byte offset of segment i.
func (s Segmenter) Offset(i int) int64 { return int64(i) * int64(s.MSS) }

// SegOf returns the segment index covering byte offset off.
func (s Segmenter) SegOf(off int64) int { return int(off / int64(s.MSS)) }

// FlowHash derives a stable per-flow ECMP PathID.
func FlowHash(id uint64) uint32 {
	// SplitMix64 finalizer.
	x := id + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return uint32(x ^ (x >> 31))
}

// Runner injects a flow trace into a protocol and runs the engine until all
// flows complete or the deadline passes. It returns the number of completed
// flows.
func Runner(env *Env, p Protocol, trace []workload.FlowSpec, deadline sim.Time) int {
	flows := make([]*Flow, len(trace))
	for i, spec := range trace {
		f := &Flow{
			ID:     spec.ID,
			Src:    netem.NodeID(spec.Src),
			Dst:    netem.NodeID(spec.Dst),
			Size:   spec.Size,
			Start:  spec.Start,
			PathID: FlowHash(spec.ID),
		}
		flows[i] = f
		env.Eng.At(spec.Start, func() { p.Start(f) })
	}
	total := len(trace)
	userDone := env.Done
	env.Done = func(f *Flow, rec stats.FlowRecord) {
		if userDone != nil {
			userDone(f, rec)
		}
		if env.completed == total {
			env.Eng.Stop()
		}
	}
	env.Eng.RunUntil(deadline)
	return env.completed
}

// Footprint counts a protocol's resident per-flow and per-host state
// objects: flow descriptors, sender machines and receiver-side state (per
// flow or per message, as the transport keeps it). The scale sweep reads it
// after a run to track how protocol state grows with the offered flow count.
type Footprint struct {
	Flows     int
	Senders   int
	Receivers int
}

// FootprintReporter reports a protocol's state footprint. Every Protocol
// is one; the scale sweep reads it after a run.
type FootprintReporter interface {
	Footprint() Footprint
}
