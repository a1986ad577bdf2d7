// Package rdbase is the shared receiver-driven substrate under ExpressPass,
// Homa and NDP: the per-flow state tables each protocol embeds (flow
// descriptors, senders and receivers), the receiver-side reassembly and
// control-packet plumbing, and the retransmission-timeout lifecycle on the
// pooled sim.Timer. The sender side of every flow is the Aeolus machine
// (internal/core.PreCredit) the transports embed.
//
// The split with the transport packages is policy versus mechanism: rdbase
// owns how a flow is reassembled, how control packets reach the sender, and
// how an RTO arms, detects idleness and rearms; the transports own *when*
// those mechanisms fire — credit shaping (ExpressPass), grant scheduling
// (Homa), trimming and pull pacing (NDP).
package rdbase

import (
	"fmt"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/flatmap"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

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

// FlowChunkSize is the largest run of values a FlowTable carves at once: 32
// values. A small run's tables hold a handful of flows, so their first
// runs are far smaller (4, 4, 8 and 16 values, a flatmap.Slab ramp that adds
// up to one chunk); a busy table carves whole chunks, which pack per-flow
// machines touched together (sequential flow IDs) into contiguous memory.
// Exported so the scale ledger can stamp the table geometry a measurement
// ran under.
const FlowChunkSize = 32

// FlowTable is an open-addressed table of packed per-flow state structs
// keyed by flow ID. Values live in a flatmap.Slab in insertion order — the
// table hands out stable *T pointers, but the structs themselves sit
// shoulder to shoulder in blocks instead of one heap object per flow, and
// lookups go through a flat open-addressed index instead of a Go map. The
// slab grows with the table, so a table of three flows carves four slots
// and one of a thousand carves them in 32-value runs, never copying. Flows
// are never deleted mid-run (completed state is kept for audits and
// footprint accounting), so the table does not support deletion.
type FlowTable[T any] struct {
	idx  flatmap.Index
	vals flatmap.Slab[T]
}

// Get returns the state of a flow, or nil when the flow is unknown.
func (t *FlowTable[T]) Get(id uint64) *T {
	slot, ok := t.idx.Get(id)
	if !ok {
		return nil
	}
	return t.vals.At(slot)
}

// Put returns the state of a flow, materializing a zeroed slot on first
// use; added reports whether this call created it (so the caller knows to
// initialize). The returned pointer is stable for the table's lifetime.
func (t *FlowTable[T]) Put(id uint64) (v *T, added bool) {
	slot, added := t.idx.Put(id)
	if added && int(slot) == t.vals.Cap() {
		t.vals.Grow(FlowChunkSize)
	}
	return t.vals.At(slot), added
}

// Len returns the number of resident flows.
func (t *FlowTable[T]) Len() int { return t.idx.Len() }

// Keys returns the flow IDs in insertion order (read-only view).
func (t *FlowTable[T]) Keys() []uint64 { return t.idx.Keys() }

// AuditPreCredits checks every sender's embedded PreCredit machine for
// internal consistency, in flow-ID order, prefixing violations with the
// transport name. It is the shared body of the transports' AuditInvariants.
func AuditPreCredits[S, R any, P interface {
	*S
	Audit() error
}](name string, t *Tables[S, R]) []error {
	ids := append([]uint64(nil), t.senders.Keys()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var errs []error
	for _, id := range ids {
		if err := P(t.Sender(id)).Audit(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return errs
}

// Tables are a protocol's per-flow state, keyed by flow ID: the flow
// descriptors, the sender machines and the receiver states, each packed in
// a FlowTable of its own. One Tables serves every host of a Protocol, as is
// conventional in packet-level simulators — logically distributed state in
// one object — and the transports embed it, so Register and Footprint are
// written once. No table is pruned when a flow completes: a completed
// receiver stays as a tombstone, so a late duplicate finds it instead of
// recreating the flow. The zero value is empty and ready to use.
type Tables[S, R any] struct {
	flows     FlowTable[*transport.Flow]
	senders   FlowTable[S]
	receivers FlowTable[R]
}

// Register adds a flow descriptor without starting a sender, so the receive
// path can look the flow up (transport.Protocol.Register); Start registers
// the flows it starts.
func (t *Tables[S, R]) Register(f *transport.Flow) {
	p, _ := t.flows.Put(f.ID)
	*p = f
}

// Flow returns the descriptor of a flow, or nil.
func (t *Tables[S, R]) Flow(id uint64) *transport.Flow {
	if p := t.flows.Get(id); p != nil {
		return *p
	}
	return nil
}

// AddSender materializes the sender machine of a flow in the packed sender
// slab and returns it, zeroed, for in-place initialization. The pointer is
// stable for the protocol's lifetime.
func (t *Tables[S, R]) AddSender(id uint64) *S {
	s, _ := t.senders.Put(id)
	return s
}

// Sender returns the sender machine of a flow, or nil.
func (t *Tables[S, R]) Sender(id uint64) *S { return t.senders.Get(id) }

// AddReceiver returns the receiver state of a flow, materializing a zeroed
// slot on first use; added reports whether this call created it, so the
// caller knows to initialize it. The pointer is stable for the protocol's
// lifetime.
func (t *Tables[S, R]) AddReceiver(id uint64) (r *R, added bool) { return t.receivers.Put(id) }

// Receiver returns the receiver state of a flow, or nil.
func (t *Tables[S, R]) Receiver(id uint64) *R { return t.receivers.Get(id) }

// Footprint implements transport.FootprintReporter: the resident flow
// descriptors, sender machines and receiver states.
func (t *Tables[S, R]) Footprint() transport.Footprint {
	return transport.Footprint{Flows: t.flows.Len(), Senders: t.senders.Len(), Receivers: t.receivers.Len()}
}
