// Package rdbase is the shared receiver-driven substrate under ExpressPass,
// Homa and NDP: the per-host flow/sender/receiver state tables, the
// sender-side send queue and segment iterator bound to the Aeolus PreCredit
// machine (internal/core), the receiver-side control-packet plumbing, and
// the retransmission-timeout lifecycle on the pooled sim.Timer.
//
// The split with the transport packages is policy versus mechanism: rdbase
// owns how a segment becomes a wire packet, how the PreCredit burst, probe,
// selective-ACK and lost-queue interplay is driven, and how an RTO arms,
// detects idleness and rearms; the transports own *when* those mechanisms
// fire — credit shaping (ExpressPass), grant scheduling (Homa), trimming
// and pull pacing (NDP).
package rdbase

import (
	"fmt"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/flatmap"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// ProbeAckMark distinguishes a probe ACK from a per-packet data ACK in the
// Meta field of Ack packets. Every transport of the substrate shares it.
const ProbeAckMark int64 = 1

// Sender is the per-flow sender substrate: the Aeolus PreCredit state
// machine plus the send queue turning segment indices into wire packets.
// Transports embed it and customize the packets through the hooks.
type Sender struct {
	Env  *transport.Env
	Flow *transport.Flow
	PC   *core.PreCredit

	// Customize, when non-nil, decorates an outgoing data packet (priority,
	// spraying path, piggybacked flow size) after the common fields are set.
	Customize func(p *netem.Packet, seg int, scheduled bool)

	// CustomizeProbe, when non-nil, decorates the end-of-burst probe.
	CustomizeProbe func(p *netem.Packet)
}

// Init wires the sender substrate for one flow: the PreCredit machine is
// built over window bytes of unscheduled burst and bound to the sender's
// send queue and probe path.
func (s *Sender) Init(env *transport.Env, f *transport.Flow, opts core.Options, window int64) {
	s.Env = env
	s.Flow = f
	s.PC = core.NewPreCredit(env, f, opts, window)
	s.PC.SendSeg = s.SendSeg
	s.PC.SendProbe = s.SendProbe
}

// DisableProbe turns off the Aeolus probe/per-packet-ACK loss detection
// while keeping the burst: no probe is sent and the ClassUnacked sweep is
// disabled, so losses surface only through ForceLost (receiver resend
// requests) — the original-transport and RTO-only configurations.
func (s *Sender) DisableProbe() {
	s.PC.SendProbe = func() {}
	s.PC.DisableUnackedSweep()
}

// Host returns the sending host.
func (s *Sender) Host() *netem.Host { return s.Env.Net.Host(s.Flow.Src) }

// Start begins the pre-credit phase.
func (s *Sender) Start() { s.PC.Start() }

// SendSeg transmits one segment, marked scheduled or unscheduled. It is the
// single place a data packet is built in the substrate.
func (s *Sender) SendSeg(seg int, scheduled bool) {
	payload := s.PC.Seg.SegLen(seg)
	s.Env.CountSent(payload)
	p := s.Env.Pkt()
	p.Type, p.Flow, p.Src, p.Dst = netem.Data, s.Flow.ID, s.Flow.Src, s.Flow.Dst
	p.Seq, p.PayloadLen = s.PC.Seg.Offset(seg), payload
	p.WireSize, p.Scheduled = netem.WireSizeFor(payload), scheduled
	p.PathID = s.Flow.PathID
	if s.Customize != nil {
		s.Customize(p, seg, scheduled)
	}
	s.Host().Send(p)
}

// SendProbe transmits the end-of-burst probe.
func (s *Sender) SendProbe() {
	p := s.PC.MakeProbe()
	if s.CustomizeProbe != nil {
		s.CustomizeProbe(p)
	}
	s.Host().Send(p)
}

// OnAck routes an Ack packet into the PreCredit machine: probe ACKs trigger
// the §3.3 loss inference, data ACKs mark their segment. It reports whether
// the packet was the probe ACK, so transports can hook phase transitions
// (Homa drains its grant quota once the probe verdict lands).
func (s *Sender) OnAck(p *netem.Packet) (probeAck bool) {
	if p.Meta == ProbeAckMark {
		s.PC.OnProbeAck()
		return true
	}
	s.PC.OnAck(p.Seq)
	return false
}

// ForceLost queues every segment of a receiver resend request for
// highest-priority retransmission.
func (s *Sender) ForceLost(segs []int32) {
	for _, seg := range segs {
		s.PC.ForceLost(int(seg))
	}
}

// Spend spends one scheduled transmission opportunity (credit, pull) on the
// next segment in the §3.3 priority order, transmitting it as scheduled. It
// returns the segment and its class; ClassNone means the opportunity found
// nothing to send (and nothing was transmitted).
func (s *Sender) Spend() (seg int, class core.RetxClass) {
	seg, class = s.PC.Next()
	if class == core.ClassNone {
		return seg, class
	}
	s.SendSeg(seg, true)
	return seg, class
}

// DrainLost retransmits every pending loss-queue segment immediately as
// scheduled packets — the path for transports that answer resend requests
// or timeouts without waiting for fresh transmission opportunities. It
// returns the number of segments retransmitted.
func (s *Sender) DrainLost() int {
	n := 0
	for {
		seg, ok := s.PC.NextLost()
		if !ok {
			return n
		}
		s.SendSeg(seg, true)
		n++
	}
}

// Ctrl builds and sends a minimum-size control packet for a flow. Control
// packets are scheduled (protected) and routed on the flow's ECMP path
// unless the caller overrides path.
func Ctrl(env *transport.Env, f *transport.Flow, typ netem.PacketType,
	src, dst netem.NodeID, seq, meta int64, path uint32) {
	p := env.Pkt()
	p.Type, p.Flow, p.Src, p.Dst = typ, f.ID, src, dst
	p.Seq, p.WireSize, p.Scheduled = seq, netem.HeaderSize, true
	p.PathID, p.Meta = path, meta
	env.Net.Host(src).Send(p)
}

// flowChunkBits sizes FlowTable's value slab chunks at 32 values. Every
// host's receive table carves a chunk for a handful of flows, so a chunk
// must be small next to the flows a host holds; 32 still packs per-flow
// machines that are touched together (sequential flow IDs) into contiguous
// memory, and at() stays one shift and one mask.
const (
	flowChunkBits = 5

	// FlowChunkSize is the number of values per FlowTable chunk. Exported so
	// the scale ledger can stamp the table geometry a measurement ran under.
	FlowChunkSize = 1 << flowChunkBits

	flowChunkMask = FlowChunkSize - 1
)

// FlowTable is an open-addressed table of packed per-flow state structs
// keyed by flow ID. Values live in non-moving chunked slabs in insertion
// order — the table hands out stable *T pointers, but the structs themselves
// sit shoulder to shoulder instead of one heap object per flow, and lookups
// go through a flat open-addressed index instead of a Go map. Flows are
// never deleted mid-run (completed state is kept for audits and footprint
// accounting), so the table does not support deletion.
type FlowTable[T any] struct {
	idx    flatmap.Index
	chunks []*[FlowChunkSize]T
}

// at returns the value at a dense slot.
func (t *FlowTable[T]) at(slot uint32) *T {
	return &t.chunks[slot>>flowChunkBits][slot&flowChunkMask]
}

// Get returns the state of a flow, or nil when the flow is unknown.
func (t *FlowTable[T]) Get(id uint64) *T {
	slot, ok := t.idx.Get(id)
	if !ok {
		return nil
	}
	return t.at(slot)
}

// Put returns the state of a flow, materializing a zeroed slot on first
// use; added reports whether this call created it (so the caller knows to
// initialize). The returned pointer is stable for the table's lifetime.
func (t *FlowTable[T]) Put(id uint64) (v *T, added bool) {
	slot, added := t.idx.Put(id)
	if added && int(slot>>flowChunkBits) == len(t.chunks) {
		t.chunks = append(t.chunks, new([FlowChunkSize]T))
	}
	return t.at(slot), added
}

// Len returns the number of resident flows.
func (t *FlowTable[T]) Len() int { return t.idx.Len() }

// At returns the i-th entry in insertion order, 0 ≤ i < Len(). Paired with
// Len it gives hot loops closure-free iteration (Homa's grant scheduler
// walks every message on every arrival).
func (t *FlowTable[T]) At(i int) *T { return t.at(uint32(i)) }

// Keys returns the flow IDs in insertion order (read-only view).
func (t *FlowTable[T]) Keys() []uint64 { return t.idx.Keys() }

// Each visits every entry in insertion order — deterministic, since flows
// are inserted in simulated-event order.
func (t *FlowTable[T]) Each(f func(id uint64, v *T)) {
	for slot, id := range t.idx.Keys() {
		f(id, t.at(uint32(slot)))
	}
}

// AuditPreCredits checks every per-flow PreCredit machine for internal
// consistency, in flow-ID order, prefixing violations with the transport
// name. It is the shared body of the transports' AuditInvariants.
func AuditPreCredits[S any](name string, senders *FlowTable[S], pc func(*S) *core.PreCredit) []error {
	ids := append([]uint64(nil), senders.Keys()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var errs []error
	for _, id := range ids {
		if err := pc(senders.Get(id)).Audit(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return errs
}

// Tables are the per-host protocol state tables keyed by flow ID: the flow
// descriptors and the per-flow sender machines. One Tables instance serves
// a whole Protocol (all hosts), as is conventional in packet-level
// simulators — logically distributed state in one object. Sender machines
// are stored packed in the table's slab, not as one allocation per flow.
type Tables[S any] struct {
	flows   FlowTable[*transport.Flow]
	senders FlowTable[S]
}

// NewTables returns empty state tables.
func NewTables[S any]() Tables[S] { return Tables[S]{} }

// AddFlow registers a flow descriptor.
func (t *Tables[S]) AddFlow(f *transport.Flow) {
	p, _ := t.flows.Put(f.ID)
	*p = f
}

// Flow returns the descriptor of a flow, or nil.
func (t *Tables[S]) Flow(id uint64) *transport.Flow {
	if p := t.flows.Get(id); p != nil {
		return *p
	}
	return nil
}

// AddSender materializes the sender machine of a flow in the packed sender
// slab and returns it, zeroed, for in-place initialization. The pointer is
// stable for the protocol's lifetime.
func (t *Tables[S]) AddSender(id uint64) *S {
	s, _ := t.senders.Put(id)
	return s
}

// Sender returns the sender machine of a flow, or nil.
func (t *Tables[S]) Sender(id uint64) *S { return t.senders.Get(id) }

// Senders exposes the sender table for audits.
func (t *Tables[S]) Senders() *FlowTable[S] { return &t.senders }

// Len returns the resident flow-descriptor and sender-machine counts — the
// per-flow state the scale sweep tracks, since neither table is pruned on
// flow completion.
func (t *Tables[S]) Len() (flows, senders int) { return t.flows.Len(), t.senders.Len() }

// HostMap lazily materializes per-receiving-host state (Homa's message
// scheduler, NDP's pull pacer). Host IDs are dense and start at zero
// (netem.NodeID's contract), so the map is a flat slice indexed by host ID.
type HostMap[R any] struct {
	hosts []*R
	n     int
	mk    func(host netem.NodeID) *R
}

// NewHostMap returns a host map materializing entries with mk.
func NewHostMap[R any](mk func(host netem.NodeID) *R) HostMap[R] {
	return HostMap[R]{mk: mk}
}

// Get returns the state of a host, materializing it on first use.
func (h *HostMap[R]) Get(host netem.NodeID) *R {
	if int(host) >= len(h.hosts) {
		grown := make([]*R, int(host)+1)
		copy(grown, h.hosts)
		h.hosts = grown
	}
	r := h.hosts[host]
	if r == nil {
		r = h.mk(host)
		h.hosts[host] = r
		h.n++
	}
	return r
}

// Len returns the number of materialized host entries.
func (h *HostMap[R]) Len() int { return h.n }

// Each visits every materialized host state in host-ID order.
func (h *HostMap[R]) Each(f func(host netem.NodeID, r *R)) {
	for id, r := range h.hosts {
		if r != nil {
			f(netem.NodeID(id), r)
		}
	}
}
