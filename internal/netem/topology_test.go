package netem

import (
	"fmt"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// collector records every packet delivered to a host endpoint.
type collector struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
}

func (c *collector) Receive(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

func attachCollectors(net *Network) []*collector {
	cs := make([]*collector, len(net.Hosts))
	for i, h := range net.Hosts {
		cs[i] = &collector{eng: net.Eng}
		h.EP = cs[i]
	}
	return cs
}

func TestPortSerializationTiming(t *testing.T) {
	eng := sim.NewEngine()
	dst := &collector{eng: eng}
	host := &Host{ID: 1, Eng: eng, EP: dst}
	pt := NewPort(eng, NewQueue(1, 0, 0), 10*sim.Gbps, 2*sim.Microsecond, host, "t")

	p1 := dataPkt(1, 1250, false) // 1 µs at 10G
	p2 := dataPkt(2, 1250, false)
	pt.Send(p1)
	pt.Send(p2)
	eng.Run()

	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.pkts))
	}
	// p1 arrives at tx(1µs) + prop(2µs) = 3µs; p2 at 2tx + prop = 4µs.
	if dst.at[0] != sim.Time(3*sim.Microsecond) {
		t.Fatalf("p1 arrival = %v, want 3us", dst.at[0])
	}
	if dst.at[1] != sim.Time(4*sim.Microsecond) {
		t.Fatalf("p2 arrival = %v, want 4us", dst.at[1])
	}
	if pt.TxBytes != 2500 || pt.TxPackets != 2 {
		t.Fatalf("tx counters = %d bytes / %d pkts", pt.TxBytes, pt.TxPackets)
	}
}

func TestPortWakesForShapedCredits(t *testing.T) {
	eng := sim.NewEngine()
	dst := &collector{eng: eng}
	host := &Host{ID: 1, Eng: eng, EP: dst}
	link := sim.Rate(10 * sim.Gbps)
	q := NewQueue(1, 0, DefaultBuffer).WithCredits(link)
	pt := NewPort(eng, q, link, 0, host, "t")

	for i := 0; i < 3; i++ {
		pt.Send(&Packet{Type: Credit, Flow: uint64(i), WireSize: CreditSize})
	}
	eng.Run()
	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d credits, want 3 (port failed to wake for shaper)", len(dst.pkts))
	}
	// Credits must be spaced by at least the shaper gap.
	gap := sim.TxTime(CreditSize, CreditRateFor(link))
	for i := 1; i < 3; i++ {
		if dst.at[i]-dst.at[i-1] < sim.Time(gap) {
			t.Fatalf("credits %d,%d spaced %v < shaper gap %v", i-1, i, dst.at[i]-dst.at[i-1], gap)
		}
	}
}

func TestSingleSwitchDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 4, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	cs := attachCollectors(net)

	p := dataPkt(1, 1538, false)
	p.Src, p.Dst = 0, 3
	net.Hosts[0].Send(p)
	eng.Run()

	if len(cs[3].pkts) != 1 {
		t.Fatalf("host 3 received %d packets, want 1", len(cs[3].pkts))
	}
	for i := 0; i < 3; i++ {
		if len(cs[i].pkts) != 0 {
			t.Fatalf("host %d received stray packet", i)
		}
	}
}

func TestLeafSpineAllPairsDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 4, Tiers: []TierSpec{{Switches: 3}, {Switches: 2}},
		HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond}, nil, 0)
	cs := attachCollectors(net)

	n := len(net.Hosts)
	if n != 12 {
		t.Fatalf("host count = %d, want 12", n)
	}
	sent := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := dataPkt(uint64(s*100+d), 1538, false)
			p.Src, p.Dst = NodeID(s), NodeID(d)
			p.PathID = uint32(s * d)
			net.Hosts[s].Send(p)
			sent++
		}
	}
	eng.Run()
	got := 0
	for d := 0; d < n; d++ {
		for _, p := range cs[d].pkts {
			if p.Dst != NodeID(d) {
				t.Fatalf("host %d received packet for %d", d, p.Dst)
			}
		}
		got += len(cs[d].pkts)
	}
	if got != sent {
		t.Fatalf("delivered %d of %d packets", got, sent)
	}
}

func TestLeafSpineECMPSymmetry(t *testing.T) {
	// A request and its reply with the same PathID must traverse the same
	// spine switch, which ExpressPass's credit shaping relies on.
	for pathID := uint32(0); pathID < 8; pathID++ {
		eng := sim.NewEngine()
		net := BuildClos(eng, TopoSpec{HostsPerEdge: 1, Tiers: []TierSpec{{Switches: 2}, {Switches: 4}},
			HostRate: 100 * sim.Gbps, LinkDelay: 100 * sim.Nanosecond}, nil, 0)
		cs := attachCollectors(net)
		fwd := dataPkt(1, 1538, false)
		fwd.Src, fwd.Dst, fwd.PathID = 0, 1, pathID
		rev := dataPkt(1, 1538, false)
		rev.Src, rev.Dst, rev.PathID = 1, 0, pathID
		net.Hosts[0].Send(fwd)
		net.Hosts[1].Send(rev)
		eng.Run()
		if len(cs[0].pkts) != 1 || len(cs[1].pkts) != 1 {
			t.Fatal("packets lost")
		}
		// Find which spine carried traffic in each direction.
		var fwdSpine, revSpine []string
		for _, sw := range net.Switches {
			if sw.Label[0] != 's' {
				continue
			}
			for _, pt := range sw.Ports {
				if pt.TxPackets > 0 {
					if pt.Dst.(*Switch).Label == "leaf1" {
						fwdSpine = append(fwdSpine, sw.Label)
					} else {
						revSpine = append(revSpine, sw.Label)
					}
				}
			}
		}
		if len(fwdSpine) != 1 || len(revSpine) != 1 || fwdSpine[0] != revSpine[0] {
			t.Fatalf("pathID %d: fwd via %v, rev via %v — not symmetric", pathID, fwdSpine, revSpine)
		}
	}
}

func TestFatTree3Delivery(t *testing.T) {
	eng := sim.NewEngine()
	// 4 ToRs of 3 hosts, two uplinks each to their leaf; 2 leaves; 2 spines.
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 3,
		Tiers:    []TierSpec{{Switches: 4, Uplinks: 2, Groups: 2}, {Switches: 2}, {Switches: 2}},
		HostRate: 100 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	cs := attachCollectors(net)
	n := len(net.Hosts)
	if n != 12 {
		t.Fatalf("host count = %d, want 12", n)
	}
	sent := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			for path := uint32(0); path < 4; path++ {
				p := dataPkt(uint64(sent), 1538, false)
				p.Src, p.Dst, p.PathID = NodeID(s), NodeID(d), path
				net.Hosts[s].Send(p)
				sent++
			}
		}
	}
	eng.Run()
	got := 0
	for d := range cs {
		got += len(cs[d].pkts)
	}
	if got != sent {
		t.Fatalf("delivered %d of %d packets", got, sent)
	}
}

func TestExpressPassShapeBuilds(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, fatTreeSpec, nil, 0)
	if len(net.Hosts) != 192 {
		t.Fatalf("hosts = %d, want 192", len(net.Hosts))
	}
	if len(net.Switches) != 32+16+8 {
		t.Fatalf("switches = %d, want 56", len(net.Switches))
	}
	// Paper: "maximum base RTT of 52us" for this topology.
	if net.BaseRTT < 45*sim.Microsecond || net.BaseRTT > 60*sim.Microsecond {
		t.Fatalf("BaseRTT = %v, want ≈52us", net.BaseRTT)
	}
	// Cross-pod host pair must have routes at every switch.
	p := dataPkt(1, 1538, false)
	p.Src, p.Dst = 0, 191
	cs := attachCollectors(net)
	net.Hosts[0].Send(p)
	eng.Run()
	if len(cs[191].pkts) != 1 {
		t.Fatal("cross-pod packet lost")
	}
}

func TestHomaTopologyBaseRTT(t *testing.T) {
	// Homa/NDP topology: 100G two-tier, base RTT ≈ 4.5 µs with ~0.5 µs links.
	eng := sim.NewEngine()
	net := BuildClos(eng, leafSpineSpec, nil, 0)
	if net.BaseRTT < 4*sim.Microsecond || net.BaseRTT > 5*sim.Microsecond {
		t.Fatalf("BaseRTT = %v, want ≈4.5us", net.BaseRTT)
	}
	if bdp := net.BDPBytes(); bdp < 50000 || bdp > 65000 {
		t.Fatalf("BDP = %d bytes, want ≈56K", bdp)
	}
}

func TestHostDelayAppliedOnReceive(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond, HostDelay: 5 * sim.Microsecond}, nil, 0)
	cs := attachCollectors(net)
	p := dataPkt(1, 1250, false)
	p.Src, p.Dst = 0, 1
	net.Hosts[0].Send(p)
	eng.Run()
	// tx 1µs + prop 1µs + tx 1µs + prop 1µs + host 5µs = 9µs.
	want := sim.Time(9 * sim.Microsecond)
	if cs[1].at[0] != want {
		t.Fatalf("arrival = %v, want %v", cs[1].at[0], want)
	}
}

func TestDropTotals(t *testing.T) {
	eng := sim.NewEngine()
	selective := func(PortKind, sim.Rate) *Queue { return NewQueue(1, 6000, DefaultBuffer) }
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, selective, 0)
	attachCollectors(net)
	// Burst 100 unscheduled packets from host 0 to host 1: the switch
	// downlink (same rate as the NIC) should drop none, so burst two senders
	// is needed... instead, throttle: send from both hosts to host 1.
	for i := 0; i < 50; i++ {
		p := dataPkt(uint64(i), 1538, false)
		p.Src, p.Dst = 0, 1
		net.Hosts[0].Send(p)
	}
	eng.Run()
	tot := DropTotals(net.SwitchPorts())
	if tot[DropSelective] != 0 {
		t.Fatalf("same-rate forwarding dropped %d packets", tot[DropSelective])
	}

	// Now two senders into one receiver: contention must drop unscheduled.
	eng2 := sim.NewEngine()
	net2 := BuildClos(eng2, TopoSpec{HostsPerEdge: 3, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, selective, 0)
	attachCollectors(net2)
	for i := 0; i < 50; i++ {
		for s := 0; s < 2; s++ {
			p := dataPkt(uint64(s*100+i), 1538, false)
			p.Src, p.Dst = NodeID(s), 2
			net2.Hosts[s].Send(p)
		}
	}
	eng2.Run()
	tot2 := DropTotals(net2.SwitchPorts())
	if tot2[DropSelective] == 0 {
		t.Fatal("2:1 contention produced no selective drops")
	}
}

// TestCascadingDelay demonstrates the Fig. 5 pathology: without scheduled-
// packet-first, an unscheduled burst delays a scheduled flow, which in a
// chain of dependent links delays further scheduled flows downstream. With
// selective dropping the scheduled flow is unaffected.
func TestCascadingDelay(t *testing.T) {
	run := func(selective bool) sim.Time {
		eng := sim.NewEngine()
		qf := func(kind PortKind, rate sim.Rate) *Queue {
			if selective {
				return NewQueue(1, 6000, DefaultBuffer)
			}
			return NewQueue(1, 0, DefaultBuffer)
		}
		net := BuildClos(eng, TopoSpec{HostsPerEdge: 5, Tiers: []TierSpec{{Switches: 1}},
			HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, qf, 0)
		cs := attachCollectors(net)
		// Hosts 0-2 each burst 32 unscheduled packets to host 4 (3:1
		// overload builds a queue); host 3 sends a scheduled packet.
		for i := 0; i < 32; i++ {
			for s := NodeID(0); s < 3; s++ {
				p := dataPkt(uint64(s)*100+uint64(i), 1538, false)
				p.Src, p.Dst = s, 4
				net.Hosts[s].Send(p)
			}
		}
		// Inject the scheduled packet once the overload has had time to
		// build a queue (20 µs ≈ 16 packets of backlog growth at 2:1 excess).
		sched := dataPkt(1000, 1538, true)
		sched.Src, sched.Dst = 3, 4
		eng.At(sim.Time(20*sim.Microsecond), func() { net.Hosts[3].Send(sched) })
		eng.Run()
		for i, p := range cs[4].pkts {
			if p.Flow == 1000 {
				return cs[4].at[i]
			}
		}
		t.Fatal("scheduled packet never arrived")
		return 0
	}
	fifoArrival := run(false)
	spfArrival := run(true)
	if spfArrival >= fifoArrival {
		t.Fatalf("selective dropping did not protect the scheduled packet: %v >= %v",
			spfArrival, fifoArrival)
	}
}

// TestSwitchPanicsOnMissingRoute checks that a packet with no route panics
// at the first switch it reaches: a switch with no routes at all, and an
// edge switch with uplinks given a destination outside the fabric's hosts,
// which must not climb the uplinks toward a switch that also has no route.
func TestSwitchPanicsOnMissingRoute(t *testing.T) {
	net := BuildClos(sim.NewEngine(), leafSpineSpec, nil, 0)
	edge := net.Switches[0]
	hosts := NodeID(len(net.Hosts))
	cases := []struct {
		name string
		sw   *Switch
		dst  NodeID
	}{
		{"no routes", &Switch{ID: 1, Eng: sim.NewEngine(), Label: "s"}, 0},
		{"dst == hosts", edge, hosts},
		{"negative dst", edge, -1},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: forwarding without a route did not panic", tc.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "switch "+tc.sw.Label+" has no route") {
					t.Fatalf("%s: panic %q, want it raised at %s", tc.name, msg, tc.sw.Label)
				}
			}()
			tc.sw.Receive(&Packet{Dst: tc.dst})
		}()
	}
}

// TestSwitchPanicsOnRoutingLoop corrupts leaf1's down window so that it
// sends packets for its own hosts back up to a spine, which sends them down
// to leaf1 again. The packet must stop at the hop bound, not circle
// forever. The deepest stack Validate accepts must still deliver: its
// longest route crosses exactly maxSwitchHops switches.
func TestSwitchPanicsOnRoutingLoop(t *testing.T) {
	net := BuildClos(sim.NewEngine(), TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 2}, {Switches: 4}},
		HostRate: 100 * sim.Gbps, LinkDelay: 100 * sim.Nanosecond}, nil, 0)
	net.Switches[1].span = 0 // leaf1 no longer sees hosts 2 and 3 below it
	func() {
		defer func() {
			want := fmt.Sprintf("is hop %d of", maxSwitchHops+1)
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) || !strings.Contains(msg, "routing loop") {
				t.Fatalf("looping packet: panic %q, want one containing %q", msg, want)
			}
		}()
		p := dataPkt(1, 1538, false)
		p.Src, p.Dst = 0, 2
		net.Hosts[0].Send(p)
		net.Eng.Run()
	}()

	// Each tier below the top two is a pair of separate chains, so a packet
	// between the two hosts climbs to the single top switch and back down.
	chains := func(tiers int) string { return "clos:" + strings.Repeat("2g2/", tiers-2) + "2/1,hosts=1" }
	deep, err := ParseTopoSpec(chains(maxTiers))
	if err != nil {
		t.Fatal(err)
	}
	net = BuildClos(sim.NewEngine(), deep, nil, 0)
	cs := attachCollectors(net)
	p := dataPkt(1, 1538, false)
	p.Src, p.Dst = 0, 1
	net.Hosts[0].Send(p)
	net.Eng.Run()
	if len(cs[1].pkts) != 1 || p.hops != maxSwitchHops {
		t.Fatalf("%d-tier chain delivered %d packets after %d hops, want 1 after %d", maxTiers, len(cs[1].pkts), p.hops, maxSwitchHops)
	}
	if _, err := ParseTopoSpec(chains(maxTiers + 1)); err == nil || !strings.Contains(err.Error(), "tiers") {
		t.Fatalf("a %d-tier stack: error %v, want the tier bound", maxTiers+1, err)
	}
}

// TestECMPSpread sends one packet for each PathID 0..15 from host 0 to a
// host under leaf1. Every port of each run the route takes must carry
// exactly 4 of them: leaf0's uplinks to 4 spines, and, on x2 links to 2
// spines, both leaf0's 4 uplinks and the spines' parallel down links to
// leaf1.
func TestECMPSpread(t *testing.T) {
	for _, tc := range []struct {
		spec string
		runs []string // each label glob matches the 4 ports of a run
	}{
		{"clos:2/4,hosts=2", []string{"leaf0->spine*"}},
		{"clos:2x2/2,hosts=2", []string{"leaf0->spine*", "spine*->leaf1.*"}},
	} {
		spec, err := ParseTopoSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		net := BuildClos(sim.NewEngine(), spec, nil, 0)
		for path := uint32(0); path < 16; path++ {
			p := dataPkt(uint64(path), 1538, false)
			p.Src, p.Dst, p.PathID = 0, 2, path
			net.Hosts[0].Send(p)
		}
		net.Eng.Run()
		for _, run := range tc.runs {
			var carried []uint64
			for _, pt := range net.SwitchPorts() {
				if matchGlob(run, pt.Label) {
					carried = append(carried, pt.TxPackets)
				}
			}
			if len(carried) != 4 || carried[0] != 4 || carried[1] != 4 || carried[2] != 4 || carried[3] != 4 {
				t.Errorf("%s: the ports of %s carried %v of PathIDs 0..15, want 4 each", tc.spec, run, carried)
			}
		}
	}
}

func TestWireSizeFor(t *testing.T) {
	if WireSizeFor(MaxPayload) != 1538 {
		t.Fatalf("WireSizeFor(MaxPayload) = %d, want 1538", WireSizeFor(MaxPayload))
	}
	if WireSizeFor(JumboPayload) != JumboMTU {
		t.Fatalf("WireSizeFor(JumboPayload) = %d, want %d", WireSizeFor(JumboPayload), JumboMTU)
	}
}

func TestNetworkPortEnumeration(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 2}, {Switches: 2}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	// leaves: 2 down + 2 up each = 8; spines: 2 down each = 4; NICs = 4.
	if got := len(net.SwitchPorts()); got != 12 {
		t.Fatalf("switch ports = %d, want 12", got)
	}
	if got := len(net.AllPorts()); got != 16 {
		t.Fatalf("all ports = %d, want 16", got)
	}
	labels := map[string]bool{}
	for _, pt := range net.AllPorts() {
		if labels[pt.Label] {
			t.Fatalf("duplicate port label %q", pt.Label)
		}
		labels[pt.Label] = true
	}
	_ = fmt.Sprintf("%v", net.Host(0).ID)
}
