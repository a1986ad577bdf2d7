package netem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// This file is the parameterized Clos generator, the one builder every
// fabric comes from: the paper's single-switch testbed, the leaf-spine and
// fat-tree evaluation fabrics and the scale-sweep shapes are all TopoSpec
// values. clos_test.go pins the structure digest (labels, node IDs, port
// orders, routes and BaseRTT) of every catalogue shape.

// PortKind tells a QueueFactory where a port sits, so transports can install
// different queues at host NICs and at switch ports.
type PortKind int

// Port kinds.
const (
	HostNIC        PortKind = iota // host to first-hop switch
	SwitchToHost                   // last-hop switch down to a host
	SwitchToSwitch                 // fabric link
)

// QueueFactory builds the queue for a port of the given kind and rate.
// Transports provide one when building a topology.
type QueueFactory func(kind PortKind, rate sim.Rate) *Queue

// TierSpec sizes one switch tier of a Clos fabric and describes its wiring to
// the tier above. Uplinks and Groups apply to the boundary between this tier
// and the next; on the top tier both are ignored.
//
// The Groups field partitions the boundary: the tier's switches are split
// into Groups equal contiguous groups, the parent tier likewise, and group i
// below is fully meshed (with Uplinks parallel links per pair) to group i
// above. Groups=1 is the familiar full leaf–spine mesh; Groups=Switches with
// a one-switch parent group is the fat-tree ToR→leaf star; intermediate
// values give k-ary fat-tree pods.
type TierSpec struct {
	Switches int // switches in this tier
	Uplinks  int // parallel links to each parent switch (0 = 1)
	Groups   int // boundary groups toward the tier above (0 = 1)
}

// TopoSpec is a complete parameterized Clos topology: the tier stack plus the
// link-timing knobs. Tiers[0] is the edge (host-facing) tier; Tiers[len-1] is
// the top. It is pure data — the CLIs parse one from a "clos:" spec string,
// the experiment catalogue and the tests declare them as literals, and
// BuildClos turns one into a Network.
type TopoSpec struct {
	HostsPerEdge int // hosts under each edge switch
	Tiers        []TierSpec

	HostRate   sim.Rate     // edge link rate
	CoreRate   sim.Rate     // fabric link rate; 0 means same as HostRate
	LinkDelay  sim.Duration // per-link propagation delay
	HostDelay  sim.Duration // end-host stack latency
	SwitchPipe sim.Duration // switching pipeline latency
}

// normalized returns a copy with the boundary defaults applied (Uplinks and
// Groups floor at 1) so the geometry helpers never divide by zero.
func (s TopoSpec) normalized() TopoSpec {
	tiers := make([]TierSpec, len(s.Tiers))
	copy(tiers, s.Tiers)
	for i := range tiers {
		if tiers[i].Uplinks < 1 {
			tiers[i].Uplinks = 1
		}
		if tiers[i].Groups < 1 {
			tiers[i].Groups = 1
		}
	}
	s.Tiers = tiers
	return s
}

// Hosts returns the total host count.
func (s TopoSpec) Hosts() int {
	if len(s.Tiers) == 0 {
		return 0
	}
	return s.HostsPerEdge * s.Tiers[0].Switches
}

func (s TopoSpec) coreRate() sim.Rate {
	if s.CoreRate > 0 {
		return s.CoreRate
	}
	return s.HostRate
}

// reachGeometry computes, per tier, the span of consecutive host IDs one
// switch reaches going down and how many switches of the tier share one such
// reach. Edge switches each own a distinct HostsPerEdge-host span; a boundary
// with G groups gives each parent the union of its group's child reaches.
// It fails on boundary group counts that do not divide both tiers evenly or
// that split a set of reach-sharing switches, and on a top tier whose
// switches do not each reach every host (the fabric is partitioned).
// Requires a normalized spec with at least one tier.
func (s TopoSpec) reachGeometry() (spans, perReach []int, err error) {
	T := len(s.Tiers)
	spans = make([]int, T)
	perReach = make([]int, T)
	spans[0], perReach[0] = s.HostsPerEdge, 1
	for t := 0; t < T-1; t++ {
		g := s.Tiers[t].Groups
		if s.Tiers[t].Switches%g != 0 {
			return nil, nil, fmt.Errorf("clos spec: tier %d's %d switches do not split into %d groups",
				t, s.Tiers[t].Switches, g)
		}
		if s.Tiers[t+1].Switches%g != 0 {
			return nil, nil, fmt.Errorf("clos spec: tier %d's %d switches do not split into tier %d's %d groups",
				t+1, s.Tiers[t+1].Switches, t, g)
		}
		cpg := s.Tiers[t].Switches / g
		if cpg%perReach[t] != 0 {
			return nil, nil, fmt.Errorf("clos spec: tier %d groups of %d split a set of %d reach-sharing switches",
				t, cpg, perReach[t])
		}
		spans[t+1] = cpg / perReach[t] * spans[t]
		perReach[t+1] = s.Tiers[t+1].Switches / g
	}
	if top := spans[T-1]; top != s.Hosts() {
		return nil, nil, fmt.Errorf("clos spec: top-tier switches reach only %d of %d hosts — the fabric is partitioned (top-boundary groups must be 1-connected)",
			top, s.Hosts())
	}
	return spans, perReach, nil
}

// Validate checks the spec describes a well-formed, fully connected fabric:
// positive sizes and a consistent reach geometry (see reachGeometry).
func (s TopoSpec) Validate() error {
	n := s.normalized()
	if len(n.Tiers) == 0 {
		return fmt.Errorf("clos spec: no tiers")
	}
	if n.HostsPerEdge < 1 {
		return fmt.Errorf("clos spec: hosts per edge switch must be >= 1, got %d", n.HostsPerEdge)
	}
	if n.HostRate <= 0 {
		return fmt.Errorf("clos spec: host rate must be positive")
	}
	for t, tier := range n.Tiers {
		if tier.Switches < 1 {
			return fmt.Errorf("clos spec: tier %d has %d switches", t, tier.Switches)
		}
	}
	_, _, err := n.reachGeometry()
	return err
}

// Oversubscription returns the worst-case downlink:uplink capacity ratio over
// all tier boundaries, floored at 1 (an undersubscribed boundary is not a
// bottleneck). A single-tier fabric has no boundary and reports 1.
func (s TopoSpec) Oversubscription() float64 {
	n := s.normalized()
	T := len(n.Tiers)
	if T == 1 {
		return 1
	}
	core := float64(n.coreRate())
	worst := 1.0
	for t := 0; t < T-1; t++ {
		g := n.Tiers[t].Groups
		ppg := n.Tiers[t+1].Switches / g
		up := float64(ppg*n.Tiers[t].Uplinks) * core
		var down float64
		if t == 0 {
			down = float64(n.HostsPerEdge) * float64(n.HostRate)
		} else {
			gBelow := n.Tiers[t-1].Groups
			cpgBelow := n.Tiers[t-1].Switches / gBelow
			down = float64(cpgBelow*n.Tiers[t-1].Uplinks) * core
		}
		if r := down / up; r > worst {
			worst = r
		}
	}
	return worst
}

// CrossEdgeFraction returns the fraction of uniformly random host pairs whose
// traffic leaves the source's edge switch — the share of offered load that
// exercises the fabric above the edge tier.
func (s TopoSpec) CrossEdgeFraction() float64 {
	h := s.Hosts()
	if h <= 1 {
		return 0
	}
	return float64(h-s.HostsPerEdge) / float64(h-1)
}

// CoreLoadFactor converts a target core load into the edge load a uniform
// traffic generator must offer: edgeLoad = coreLoad / CoreLoadFactor. It is
// the oversubscription times the cross-edge traffic fraction; fabrics where
// no traffic crosses the core (single tier, single edge switch) report 1 so
// the conversion is the identity.
func (s TopoSpec) CoreLoadFactor() float64 {
	f := s.Oversubscription() * s.CrossEdgeFraction()
	if f <= 0 {
		return 1
	}
	return f
}

// tierNames returns the per-tier label prefixes: "sw" for one tier,
// "leaf"/"spine" for two, "tor"/"leaf"/"spine" for three (the labels the
// structure digests and impairment targets pin); deeper stacks fall back to
// "t<tier>".
func (s TopoSpec) tierNames() []string {
	switch len(s.Tiers) {
	case 1:
		return []string{"sw"}
	case 2:
		return []string{"leaf", "spine"}
	case 3:
		return []string{"tor", "leaf", "spine"}
	}
	names := make([]string, len(s.Tiers))
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	return names
}

// idSpacing returns the NodeID stride between tiers: tier t switch i gets ID
// spacing*(t+1)+i. A fixed stride of 1000 would collide switch IDs with host
// IDs once a fabric exceeds 1000 hosts (or 1000 switches in a tier); the
// stride grows in 1000-steps so the sub-1000-host catalogue shapes keep
// their pinned IDs while larger fabrics stay collision-free.
func (s TopoSpec) idSpacing() int {
	need := s.Hosts()
	for _, t := range s.Tiers {
		if t.Switches > need {
			need = t.Switches
		}
	}
	spacing := 1000
	for spacing < need {
		spacing += 1000
	}
	return spacing
}

// BuildClos wires the fabric a TopoSpec describes. The wiring order is
// fixed — switch creation tier by tier, hosts with their edge down-ports,
// edge uplinks, middle tiers' down-then-up ports per switch, top-tier
// down-ports — and clos_test.go pins the result with structure digests. A
// nil qf installs a DefaultBuffer FIFO on every port. frameBytes is the
// full-frame serialization size BaseRTT charges per forward hop; zero means
// WireSizeFor(MaxPayload), the standard-MTU 1538 B frame. Jumbo-MTU fabrics
// (NDP's 9 KB MSS) pass their own full frame, or the derived BaseRTT/BDP
// undercounts serialization. A spec that fails Validate panics: topology
// construction errors are program bugs, never run results.
func BuildClos(eng *sim.Engine, spec TopoSpec, qf QueueFactory, frameBytes int) *Network {
	sp := spec.normalized()
	if err := sp.Validate(); err != nil {
		panic("netem: " + err.Error())
	}
	if qf == nil {
		qf = func(PortKind, sim.Rate) *Queue { return NewQueue(1, 0, DefaultBuffer) }
	}
	core := sp.coreRate()
	T := len(sp.Tiers)
	nHosts := sp.Hosts()
	spans, perReach, _ := sp.reachGeometry() // checked by Validate
	names := sp.tierNames()
	spacing := sp.idSpacing()

	// Switches, tier by tier. A switch's down window is its reach: an edge
	// switch's blocks are its hosts, one port each; above the edge a block
	// is the reach a set of children share, on their parallel links.
	net := &Network{Eng: eng, HostRate: sp.HostRate}
	sw := make([][]*Switch, T)
	for t := range sw {
		sw[t] = make([]*Switch, sp.Tiers[t].Switches)
		block, run := 1, 1
		if t > 0 {
			block, run = spans[t-1], perReach[t-1]*sp.Tiers[t-1].Uplinks
		}
		for i := range sw[t] {
			sw[t][i] = &Switch{ID: NodeID(spacing*(t+1) + i), Eng: eng, PipeDelay: sp.SwitchPipe,
				Label: fmt.Sprintf("%s%d", names[t], i), hosts: int32(nHosts),
				lo: int32(i / perReach[t] * spans[t]), span: int32(spans[t]),
				block: int32(block), run: int32(run)}
		}
		net.Switches = append(net.Switches, sw[t]...)
	}

	// Hosts and edge down-ports.
	for e, edge := range sw[0] {
		for k := 0; k < sp.HostsPerEdge; k++ {
			id := NodeID(e*sp.HostsPerEdge + k)
			h := &Host{ID: id, Eng: eng, HostDelay: sp.HostDelay}
			h.NIC = NewPort(eng, qf(HostNIC, sp.HostRate), sp.HostRate, sp.LinkDelay,
				edge, fmt.Sprintf("h%d->%s", id, edge.Label))
			edge.Ports = append(edge.Ports, NewPort(eng, qf(SwitchToHost, sp.HostRate), sp.HostRate,
				sp.LinkDelay, h, fmt.Sprintf("%s->h%d", edge.Label, id)))
			net.Hosts = append(net.Hosts, h)
		}
	}

	// wire appends links parallel ports from me to each of peers, in order;
	// only parallel links get the ".n" label suffix.
	wire := func(me *Switch, peers []*Switch, links int) {
		for _, peer := range peers {
			for u := 0; u < links; u++ {
				label := me.Label + "->" + peer.Label
				if links > 1 {
					label += "." + strconv.Itoa(u)
				}
				me.Ports = append(me.Ports, NewPort(eng, qf(SwitchToSwitch, core), core, sp.LinkDelay, peer, label))
			}
		}
	}

	// Fabric links, switch by switch: down to every child of the boundary
	// group in child order, so the children sharing a reach give one run,
	// then up to every parent of the group, the run to every other host.
	for t := range sw {
		for i, me := range sw[t] {
			if t > 0 {
				cpg := sp.Tiers[t-1].Switches / sp.Tiers[t-1].Groups
				g := i / perReach[t]
				wire(me, sw[t-1][g*cpg:(g+1)*cpg], sp.Tiers[t-1].Uplinks)
			}
			if t < T-1 {
				ppg := perReach[t+1]
				g := i / (sp.Tiers[t].Switches / sp.Tiers[t].Groups)
				me.up, me.nUp = int32(len(me.Ports)), int32(ppg*sp.Tiers[t].Uplinks)
				wire(me, sw[t+1][g*ppg:(g+1)*ppg], sp.Tiers[t].Uplinks)
			}
		}
	}

	net.BaseRTT = baseRTT(sp, frameBytes)
	net.attachPool(NewPacketPool())
	return net
}

// baseRTT estimates the zero-load RTT across the fabric's longest path: two
// host links, 2(T-1) fabric links and 2T-1 switches. Every link costs its
// propagation both ways, one full-frame serialization forward and one
// minimum-frame serialization back; every switch its pipeline both ways;
// the host stack its delay both ways.
func baseRTT(s TopoSpec, frame int) sim.Duration {
	if frame <= 0 {
		frame = WireSizeFor(MaxPayload)
	}
	link := func(r sim.Rate) sim.Duration {
		return 2*s.LinkDelay + sim.TxTime(frame, r) + sim.TxTime(HeaderSize, r)
	}
	T := sim.Duration(len(s.Tiers))
	return 2*link(s.HostRate) + 2*(T-1)*link(s.coreRate()) +
		2*(2*T-1)*s.SwitchPipe + 2*s.HostDelay
}

// ParseTopoSpec parses the CLI "clos:" spec grammar:
//
//	clos:<tier>/<tier>/...[,key=value]...
//	tier: <switches>[x<uplinks>][g<groups>]      (edge tier first)
//	keys: hosts=<n>        hosts per edge switch          (default 8)
//	      rate=<rate>      edge link rate                 (default 100Gbps)
//	      core=<rate>      fabric link rate               (default same as rate)
//	      delay=<dur>      per-link propagation delay     (default 1us)
//	      hostdelay=<dur>  end-host stack latency         (default 0)
//	      pipe=<dur>       switching pipeline latency     (default 0)
//
// For example "clos:32x2g16/16/8,hosts=6,rate=100Gbps,delay=4us,hostdelay=1us"
// is the ExpressPass 192-host fat-tree, and "clos:32/32,hosts=32,delay=500ns"
// is a 1024-host leaf-spine. Rates and durations use the sim package's units
// ("100Gbps", "500ns"). The leading "clos:" is optional; a key given twice
// is an error.
func ParseTopoSpec(s string) (TopoSpec, error) {
	raw := strings.TrimPrefix(s, "clos:")
	spec := closDefaults
	fields := strings.Split(raw, ",")
	if fields[0] == "" {
		return TopoSpec{}, fmt.Errorf("clos spec %q: missing tier list", s)
	}
	for _, ts := range strings.Split(fields[0], "/") {
		tier, err := parseTier(ts)
		if err != nil {
			return TopoSpec{}, fmt.Errorf("clos spec %q: %v", s, err)
		}
		spec.Tiers = append(spec.Tiers, tier)
	}
	if err := kv.Parse(fields[1:], spec.params()); err != nil {
		return TopoSpec{}, fmt.Errorf("clos spec %q: %v", s, err)
	}
	if err := spec.Validate(); err != nil {
		return TopoSpec{}, fmt.Errorf("%v (in %q)", err, s)
	}
	return spec, nil
}

// closDefaults is what a "clos:" spec leaves unsaid: 8 hosts per edge
// switch on 100G links with 1 µs of propagation delay.
var closDefaults = TopoSpec{HostsPerEdge: 8, HostRate: 100 * sim.Gbps, LinkDelay: sim.Microsecond}

// params binds the "clos:" spec keys to the spec's fields, in render order.
func (s *TopoSpec) params() []kv.Field {
	return []kv.Field{
		{Key: "hosts", Ptr: &s.HostsPerEdge}, {Key: "rate", Ptr: &s.HostRate}, {Key: "core", Ptr: &s.CoreRate},
		{Key: "delay", Ptr: &s.LinkDelay}, {Key: "hostdelay", Ptr: &s.HostDelay}, {Key: "pipe", Ptr: &s.SwitchPipe},
	}
}

// parseTier parses one "<switches>[x<uplinks>][g<groups>]" tier term.
func parseTier(s string) (TierSpec, error) {
	var t TierSpec
	rest := s
	if i := strings.IndexByte(rest, 'g'); i >= 0 {
		g, err := strconv.Atoi(rest[i+1:])
		if err != nil {
			return t, fmt.Errorf("bad tier %q: groups: %v", s, err)
		}
		t.Groups = g
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, 'x'); i >= 0 {
		u, err := strconv.Atoi(rest[i+1:])
		if err != nil {
			return t, fmt.Errorf("bad tier %q: uplinks: %v", s, err)
		}
		t.Uplinks = u
		rest = rest[:i]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return t, fmt.Errorf("bad tier %q: switches: %v", s, err)
	}
	t.Switches = n
	return t, nil
}

// String renders the spec in the ParseTopoSpec grammar. The output is
// canonical (defaults for uplinks/groups omitted, optional keys only when
// set) and round-trips: ParseTopoSpec(s.String()) builds the same fabric.
func (s TopoSpec) String() string {
	n := s.normalized()
	var b strings.Builder
	b.WriteString("clos:")
	for i, t := range n.Tiers {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%d", t.Switches)
		if i < len(n.Tiers)-1 {
			if t.Uplinks != 1 {
				fmt.Fprintf(&b, "x%d", t.Uplinks)
			}
			if t.Groups != 1 {
				fmt.Fprintf(&b, "g%d", t.Groups)
			}
		}
	}
	// A key is omitted only when both its value and its default are zero,
	// so the keys with a non-zero default (hosts, rate, delay) always show.
	def := closDefaults
	defs := def.params()
	for i, f := range n.params() {
		if !f.Zero() || !defs[i].Zero() {
			fmt.Fprintf(&b, ",%s=%s", f.Key, f.String())
		}
	}
	return b.String()
}

// nodeLabel renders a port destination for the structure dump.
func nodeLabel(n Node) string {
	switch v := n.(type) {
	case *Host:
		return fmt.Sprintf("h%d", v.ID)
	case *Switch:
		return v.Label
	default:
		return fmt.Sprintf("%T", n)
	}
}

// StructureDump renders every structural fact of the built network — hosts,
// switches, IDs, labels, port orders, rates, delays, routes, BaseRTT — in a
// canonical text form. Each switch's route to each host prints as the list
// of ports its run spans. Two networks behave identically under this
// simulator iff their dumps match (queue choice aside), so the dump is the
// basis for the pinned structure digests.
func (n *Network) StructureDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hosts=%d switches=%d hostrate=%v basertt=%s\n",
		len(n.Hosts), len(n.Switches), n.HostRate, n.BaseRTT.ExactString())
	for _, h := range n.Hosts {
		fmt.Fprintf(&b, "host h%d delay=%s nic[rate=%v delay=%s dst=%s label=%q]\n",
			h.ID, h.HostDelay.ExactString(),
			h.NIC.Rate, h.NIC.Delay.ExactString(), nodeLabel(h.NIC.Dst), h.NIC.Label)
	}
	for _, sw := range n.Switches {
		fmt.Fprintf(&b, "switch %s id=%d pipe=%s\n", sw.Label, sw.ID, sw.PipeDelay.ExactString())
		for i, pt := range sw.Ports {
			fmt.Fprintf(&b, "  port %d rate=%v delay=%s dst=%s label=%q\n",
				i, pt.Rate, pt.Delay.ExactString(), nodeLabel(pt.Dst), pt.Label)
		}
		ports := make([]int32, len(sw.Ports))
		for i := range ports {
			ports[i] = int32(i)
		}
		for id := range n.Hosts {
			first, k := sw.route(id)
			fmt.Fprintf(&b, "  route %d %v\n", id, ports[first:first+k])
		}
	}
	return b.String()
}

// StructureDigest is the SHA-256 of StructureDump in hex — a compact pin for
// golden topology tests.
func (n *Network) StructureDigest() string {
	sum := sha256.Sum256([]byte(n.StructureDump()))
	return hex.EncodeToString(sum[:])
}
