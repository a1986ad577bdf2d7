package netem

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// Endpoint is the transport attachment point of a host: every packet whose
// destination is the host is handed to its endpoint.
type Endpoint interface {
	Receive(p *Packet)
}

// Host is an end system: a NIC output port toward its top-of-rack switch and
// a transport endpoint. The configured HostDelay models end-host stack
// latency and is applied on the receive path.
type Host struct {
	ID        NodeID
	Eng       *sim.Engine
	NIC       *Port
	EP        Endpoint
	Pool      *PacketPool // releases delivered packets; nil is valid
	HostDelay sim.Duration

	// Tap, when non-nil, observes every delivery under label (both set by
	// InstrumentHosts). Untraced hosts pay one nil check.
	Tap   Tracer
	label string

	RxPackets uint64
	RxBytes   int64
}

// Receive implements Node: deliver to the endpoint after the host stack delay.
// The delayed hop reuses the packet as its own event (see Packet.Fire).
func (h *Host) Receive(p *Packet) {
	h.RxPackets++
	h.RxBytes += int64(p.WireSize)
	if h.HostDelay > 0 {
		p.next = (*hostStack)(h)
		h.Eng.AfterHandler(h.HostDelay, p)
		return
	}
	h.deliver(p)
}

// deliver shows the packet to the tap, hands it to the endpoint, then
// releases it: the endpoint boundary terminates a delivered packet's life.
// Endpoints must not retain the packet or alias its SegList past Receive.
func (h *Host) deliver(p *Packet) {
	if h.Tap != nil {
		h.Tap.Trace(h.Eng.Now(), TraceDeliver, h.label, p)
	}
	if h.EP != nil {
		h.EP.Receive(p)
	}
	h.Pool.Put(p)
}

// hostStack is the zero-state Node view of a Host that the delayed receive
// path lands on after HostDelay.
type hostStack Host

func (h *hostStack) Receive(p *Packet) { (*Host)(h).deliver(p) }

// Send stamps the packet's send time (if unset) and offers it to the NIC.
func (h *Host) Send(p *Packet) {
	if p.SendTime == 0 {
		p.SendTime = h.Eng.Now()
	}
	h.NIC.Send(p)
}

// Switch is an output-queued switch: packets are routed to an output port by
// destination host ID, with ECMP among equal-cost ports selected by the
// packet's PathID. PipeDelay models the switching pipeline latency. A route
// is a run of consecutive ports worked out from a few numbers BuildClos sets,
// the same few on every switch of any fabric (see route).
type Switch struct {
	ID        NodeID
	Eng       *sim.Engine
	Ports     []*Port
	PipeDelay sim.Duration
	Label     string

	hosts      int32 // hosts in the fabric: no other Dst has a route
	lo, span   int32 // down window: hosts [lo, lo+span), below this switch
	block, run int32 // hosts per block of the window, ports per block (from 0)
	up, nUp    int32 // uplink run, for every other host: Ports[up : up+nUp]
}

// route returns the run of ports a packet for host d may leave on,
// Ports[first : first+n]; n == 0 means there is no route.
func (s *Switch) route(d int) (first, n int) {
	if off := d - int(s.lo); uint(off) < uint(s.span) {
		return off / int(s.block) * int(s.run), int(s.run)
	}
	if uint(d) >= uint(s.hosts) {
		return 0, 0
	}
	return int(s.up), int(s.nUp)
}

// Receive implements Node. The pipeline-delay hop reuses the packet as its
// own event (see Packet.Fire).
func (s *Switch) Receive(p *Packet) {
	if s.PipeDelay > 0 {
		p.next = (*switchPipe)(s)
		s.Eng.AfterHandler(s.PipeDelay, p)
		return
	}
	s.forward(p)
}

// switchPipe is the zero-state Node view of a Switch that packets land on
// after the switching-pipeline delay.
type switchPipe Switch

func (sp *switchPipe) Receive(p *Packet) { (*Switch)(sp).forward(p) }

func (s *Switch) forward(p *Packet) {
	first, n := s.route(int(p.Dst))
	if n == 0 {
		panic(fmt.Sprintf("netem: switch %s has no route to host %d for %v", s.Label, p.Dst, p))
	}
	s.Ports[first+int(p.PathID)%n].Send(p)
}

// Network is a built topology: the engine, all hosts and switches, and the
// derived timing constants transports need (base RTT, BDP).
type Network struct {
	Eng      *sim.Engine
	Hosts    []*Host
	Switches []*Switch

	// Pool recycles packets for this network; one pool per run (the
	// parallel experiment executor builds one Network, and thus one pool,
	// per simulation). Topology builders attach it to every host and port.
	Pool *PacketPool

	// HostRate is the edge link rate (hosts' NIC rate).
	HostRate sim.Rate

	// BaseRTT is the zero-load round-trip time between the farthest pair of
	// hosts, including serialization of one full-size frame on each hop and
	// a minimum-size reply. Transports size their first-RTT window from it.
	BaseRTT sim.Duration

	// localHosts, when non-nil, restricts EndpointHosts to the hosts one
	// shard owns. Unsharded networks leave it nil: every host is local.
	localHosts []*Host
}

// EndpointHosts returns the hosts a protocol instance should attach its
// endpoints to: all hosts on an unsharded network, the owned subset on a
// per-shard view. Transports must attach through this (not Hosts) so that
// per-shard protocol instances do not overwrite each other's endpoints.
func (n *Network) EndpointHosts() []*Host {
	if n.localHosts != nil {
		return n.localHosts
	}
	return n.Hosts
}

// BDPBytes returns the bandwidth-delay product of the edge rate and base RTT:
// the number of bytes a new flow may burst in its pre-credit phase.
func (n *Network) BDPBytes() int64 {
	return sim.BytesIn(n.BaseRTT, n.HostRate)
}

// Host returns the host with the given ID.
func (n *Network) Host(id NodeID) *Host { return n.Hosts[id] }

// SwitchPorts returns every switch output port (host NICs excluded).
func (n *Network) SwitchPorts() []*Port {
	var ps []*Port
	for _, s := range n.Switches {
		ps = append(ps, s.Ports...)
	}
	return ps
}

// AllPorts returns every port in the network, NICs included.
func (n *Network) AllPorts() []*Port {
	ps := n.SwitchPorts()
	for _, h := range n.Hosts {
		ps = append(ps, h.NIC)
	}
	return ps
}

// attachPool wires one PacketPool into every packet-terminating element of
// the network: hosts (endpoint delivery) and all ports (queue drops).
func (n *Network) attachPool(pp *PacketPool) {
	n.Pool = pp
	for _, h := range n.Hosts {
		h.Pool = pp
		h.NIC.Pool = pp
	}
	for _, s := range n.Switches {
		for _, pt := range s.Ports {
			pt.Pool = pp
		}
	}
}

// DropTotals sums the ports' drop counters by reason.
func DropTotals(ports []*Port) [NumDropReasons]uint64 {
	var tot [NumDropReasons]uint64
	for _, pt := range ports {
		for i, n := range pt.Drops {
			tot[i] += n
		}
	}
	return tot
}
