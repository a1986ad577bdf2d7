// Package netem implements the network elements of the simulator: packets,
// queueing disciplines (including Aeolus selective dropping, strict
// priorities, NDP packet trimming and ExpressPass credit shaping), serialized
// links, output-queued switches, ECMP routing and topology builders.
//
// The package is transport-agnostic: transports communicate intent through
// packet fields (Type, Scheduled, Prio, PathID) and the queueing disciplines
// act on those fields, mirroring how real transports program commodity
// switches through DSCP/ECN marking and priority configuration (§4.1 of the
// Aeolus paper).
package netem

import "fmt"

// NodeID identifies a host or switch in a Network. Host IDs are dense and
// start at zero, so per-host state is a slice indexed by ID, and a switch
// routes a destination host by arithmetic on its ID (BuildClos).
type NodeID int32

// PacketType enumerates the packet kinds used by the transports in this
// repository. A single shared enum keeps the switch models transport-agnostic
// while letting queueing disciplines distinguish control from data.
type PacketType uint8

// Packet types.
const (
	Data      PacketType = iota // application payload
	Ack                         // acknowledgment (per-packet SACK, NDP ack)
	Nack                        // NDP: notification of a trimmed packet
	Pull                        // NDP: receiver-paced transmission token
	Credit                      // ExpressPass: one credit authorizes one MTU
	CreditReq                   // ExpressPass/Aeolus: request to start crediting
	Grant                       // Homa: receiver grant
	Resend                      // Homa: receiver resend request
	Probe                       // Aeolus: end-of-burst probe (64 B)
	CtrlOther                   // miscellaneous control
)

var packetTypeNames = [...]string{
	"DATA", "ACK", "NACK", "PULL", "CREDIT", "CREDIT_REQ", "GRANT", "RESEND", "PROBE", "CTRL",
}

// String returns the wire-format name of the packet type.
func (t PacketType) String() string {
	if int(t) < len(packetTypeNames) {
		return packetTypeNames[t]
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// IsControl reports whether the type is a small control packet (everything
// except Data). Control packets are treated as scheduled by Aeolus queueing
// (§3.3: "to guarantee the delivery of the probe packet and all ACKs, we
// treat them as scheduled in the network").
func (t PacketType) IsControl() bool { return t != Data }

// Common wire sizes in bytes. A full-size data frame is payload plus
// FrameOverhead (IP+transport headers, Ethernet header/FCS, preamble and
// inter-packet gap), giving the canonical 1538-byte maximum frame that the
// ExpressPass 84/1538 credit ratio is defined against.
const (
	MTU           = 1500      // default MTU (paper default, §5.1)
	JumboMTU      = 9000      // NDP's default jumbo frame
	FrameOverhead = 78        // 40 B IP+transport headers + 38 B Ethernet framing
	MaxPayload    = 1460      // payload of a full 1538 B frame
	JumboPayload  = 8922      // payload of a full 9000 B jumbo frame
	HeaderSize    = 64        // trimmed-header / control packet size
	CreditSize    = 84        // ExpressPass credit packet size
	ProbeSize     = 64        // Aeolus probe: minimum Ethernet frame (§3.3)
	DefaultBuffer = 200 << 10 // 200 KB per-port buffer (paper default)
)

// WireSizeFor returns the on-wire frame size of a data packet carrying the
// given payload.
func WireSizeFor(payload int) int { return payload + FrameOverhead }

// Packet is the unit of transmission. Transports allocate one Packet per
// simulated wire packet; switches never copy packets, they only move the
// pointer between queues (and may trim it in place, as NDP hardware does).
//
// The field order is deliberate: 8-byte fields first, then the pointers,
// then the 4-byte IDs, then the packed byte-wide type/priority/flag tail —
// no interior padding, so a Packet is 104 bytes and a pool slab chunk packs
// them shoulder to shoulder.
type Packet struct {
	Flow uint64 // flow identifier, unique per run

	// Seq is the byte offset of the first payload byte for Data packets; for
	// control packets it echoes whatever sequence the protocol requires
	// (e.g. the last unscheduled byte for an Aeolus probe, the granted
	// offset for a Homa grant, the pulled sequence for an NDP pull).
	Seq int64

	PayloadLen int // application payload bytes carried (0 for control/trimmed)
	WireSize   int // total bytes occupying the wire, headers included

	// Meta carries one transport-specific scalar of a control packet: the
	// flow size on an Aeolus probe and an ExpressPass credit request, the
	// priority level on a Homa grant, and the probe mark on the ACK of an
	// Aeolus probe. Data packets leave it zero.
	Meta int64

	// SegList carries segment indices on Resend requests — the simulator's
	// stand-in for the SACK blocks a real header would encode. Receivers must
	// copy it, never alias it: the backing array is reused when the packet is
	// recycled through a PacketPool.
	SegList []int32

	// next is the in-flight delivery target: the port (or switch pipeline,
	// or host stack) that put the packet "on the wire" records where it lands
	// so the packet itself can serve as the delivery event. A packet is in
	// flight toward at most one node at a time, so one slot suffices.
	next Node

	Src NodeID // source host
	Dst NodeID // destination host

	// PathID seeds ECMP decisions: each switch with k equal-cost next hops
	// forwards to choice PathID mod k. Per-flow ECMP sets it to a hash of
	// the flow ID (symmetric forward/reverse paths); per-packet spraying
	// draws a fresh random PathID for every packet.
	PathID uint32

	// slot is 1 + the packet's index in its pool's slab, 0 for packets
	// allocated outside a pool slab (nil pools, disabled pools, hand-built
	// fixtures). It survives recycling: the slot names the storage, not the
	// packet's current life.
	slot uint32

	Type PacketType

	Prio uint8 // strict-priority band; 0 is the highest priority

	// Scheduled marks the packet as credit-induced (ECT in the RED/ECN
	// realization of §4.1). Unscheduled packets (Scheduled=false, Non-ECT)
	// are the ones selective dropping may discard.
	Scheduled bool

	Trimmed bool // NDP: payload was cut by the switch

	// pooled marks a packet currently sitting in a PacketPool free-list;
	// Put on an already-pooled packet is the double-free bug the audit layer
	// reports as a structured violation.
	pooled bool

	// hops counts the switches the packet has crossed. A switch panics once
	// it exceeds maxSwitchHops, so a routing loop fails at once instead of
	// circling forever.
	hops uint8
}

// PoolSlot returns the packet's dense index in its pool's slab arena, or -1
// for packets allocated outside a slab. Slots are unique per pool and stable
// across recycling, so observers (the audit layer) can keep per-packet state
// in a flat array instead of a pointer-keyed map.
func (p *Packet) PoolSlot() int32 { return int32(p.slot) - 1 }

// Fire implements sim.Handler: deliver the packet to the recorded in-flight
// target. Scheduling the packet itself as the event removes the per-hop
// closure allocation that used to dominate the port path.
func (p *Packet) Fire() {
	dst := p.next
	p.next = nil
	dst.Receive(p)
}

// String renders a compact human-readable summary, for traces and tests.
func (p *Packet) String() string {
	sched := "U"
	if p.Scheduled {
		sched = "S"
	}
	return fmt.Sprintf("%v{flow=%d %d->%d seq=%d len=%d wire=%d %s prio=%d}",
		p.Type, p.Flow, p.Src, p.Dst, p.Seq, p.PayloadLen, p.WireSize, sched, p.Prio)
}

// Trim cuts the payload from a Data packet, converting it into a 64-byte
// header-only packet, exactly as NDP's cutting-payload switches do.
func (p *Packet) Trim() {
	p.Trimmed = true
	p.PayloadLen = 0
	p.WireSize = HeaderSize
}
