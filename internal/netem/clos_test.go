package netem

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/raceflag"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// The five experiment-catalogue shapes, expressed as TopoSpecs with the
// link timing the experiment harness uses.
var (
	singleSpec = TopoSpec{HostsPerEdge: 8, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: 3 * sim.Microsecond}
	microSpec = TopoSpec{HostsPerEdge: 24, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 100 * sim.Gbps, LinkDelay: sim.Microsecond}
	leafSpineSpec = TopoSpec{HostsPerEdge: 8, Tiers: []TierSpec{{Switches: 8}, {Switches: 8}},
		HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond}
	fatTreeSpec = TopoSpec{HostsPerEdge: 6,
		Tiers:    []TierSpec{{Switches: 32, Uplinks: 2, Groups: 16}, {Switches: 16}, {Switches: 8}},
		HostRate: 100 * sim.Gbps, LinkDelay: 4 * sim.Microsecond, HostDelay: sim.Microsecond}
	incastFabricSpec = TopoSpec{HostsPerEdge: 16, Tiers: []TierSpec{{Switches: 9}, {Switches: 4}},
		HostRate: 100 * sim.Gbps, CoreRate: 400 * sim.Gbps,
		LinkDelay: 200 * sim.Nanosecond, SwitchPipe: 250 * sim.Nanosecond}
)

var closSpecs = map[string]TopoSpec{
	"single":       singleSpec,
	"micro":        microSpec,
	"leafspine":    leafSpineSpec,
	"fattree":      fatTreeSpec,
	"incastfabric": incastFabricSpec,
}

// closDigests pins the structural digest of every catalogue shape. They were
// captured from the hand-written single-switch, leaf-spine and fat-tree
// builders BuildClos replaced; a change here means every experiment result on
// that topology may shift.
var closDigests = map[string]string{
	"single":       "2f96ca96ee2f8e7b68a46c5629a16baf46c16beb4bf711b1265023503923c3da",
	"micro":        "c2bb422e3b37b1d5bba22b65c130a49c3b805f737bd4b20689f8a0b59c2d1eb5",
	"leafspine":    "1a45d2dae1317ecc8255b82a36413ce2d5fb8a7bac11dd7975fa85f125777f33",
	"fattree":      "1629024767e6a3e821a2913897180f85c6fcf216c04aef442d7142da2fd008ca",
	"incastfabric": "e9fb1b11d9af34a1f152fe22f721e22f968cf2f03912a19acc2bdd80eb738fbf",
}

// TestBuildClosReproducesLegacy holds the generator to the fabrics of the
// hand-written builders it replaced: every catalogue shape must build to its
// pinned structure digest.
func TestBuildClosReproducesLegacy(t *testing.T) {
	for name, spec := range closSpecs {
		if got, want := BuildClos(sim.NewEngine(), spec, nil, 0).StructureDigest(), closDigests[name]; got != want {
			t.Errorf("%s: structure digest = %s, pinned %s", name, got, want)
		}
	}
}

// TestClosLoadModel checks the load-conversion geometry against the values
// the experiment harness has always used (edgeLoadFor's hand-derived
// constants).
func TestClosLoadModel(t *testing.T) {
	approx := func(got, want, tol float64) bool { return got-want <= tol && want-got <= tol }
	if got := fatTreeSpec.Oversubscription(); got != 3.0 {
		t.Errorf("fattree oversubscription = %v, want 3", got)
	}
	if got := leafSpineSpec.Oversubscription(); got != 1.0 {
		t.Errorf("leafspine oversubscription = %v, want 1", got)
	}
	if got := incastFabricSpec.Oversubscription(); got != 1.0 {
		t.Errorf("incastfabric oversubscription = %v, want 1 (16x100G edge vs 4x400G core)", got)
	}
	if got := fatTreeSpec.CoreLoadFactor(); !approx(got, 3.0*186.0/191.0, 1e-12) {
		t.Errorf("fattree core-load factor = %v, want %v", got, 3.0*186.0/191.0)
	}
	if got := incastFabricSpec.CoreLoadFactor(); !approx(got, 128.0/143.0, 1e-12) {
		t.Errorf("incastfabric core-load factor = %v, want %v", got, 128.0/143.0)
	}
	// The harness's historical leafspine constant 7/8 is a rounding of the
	// exact cross-edge fraction 56/63; the catalogue pins the historical
	// value, the spec reports the exact one.
	if got := leafSpineSpec.CoreLoadFactor(); !approx(got, 56.0/63.0, 1e-12) {
		t.Errorf("leafspine core-load factor = %v, want %v", got, 56.0/63.0)
	}
	if got := singleSpec.CoreLoadFactor(); got != 1.0 {
		t.Errorf("single core-load factor = %v, want 1", got)
	}
}

// TestClosPortCounts checks the per-tier link budget the oversubscription
// ratios are derived from: every switch carries exactly its down-ports plus
// its up-ports.
func TestClosPortCounts(t *testing.T) {
	cases := []struct {
		name  string
		spec  TopoSpec
		wants map[string]int // label prefix -> expected port count
	}{
		{"leafspine", leafSpineSpec, map[string]int{"leaf": 8 + 8, "spine": 8}},
		{"fattree", fatTreeSpec, map[string]int{"tor": 6 + 2, "leaf": 2*2 + 8, "spine": 16}},
		{"incastfabric", incastFabricSpec, map[string]int{"leaf": 16 + 4, "spine": 9}},
	}
	for _, tc := range cases {
		net := BuildClos(sim.NewEngine(), tc.spec, nil, 0)
		for _, sw := range net.Switches {
			prefix := strings.TrimRight(sw.Label, "0123456789")
			want, ok := tc.wants[prefix]
			if !ok {
				t.Fatalf("%s: unexpected switch label %q", tc.name, sw.Label)
			}
			if len(sw.Ports) != want {
				t.Errorf("%s: switch %s has %d ports, want %d", tc.name, sw.Label, len(sw.Ports), want)
			}
		}
	}
}

// routeWalk follows the switches' routes from node to host dst with a fixed
// ECMP path ID, returning the number of links crossed, or -1 if the walk
// does not end at dst within 16 links.
func routeWalk(node Node, dst NodeID, pathID int) int {
	for links := 0; links <= 16; links++ {
		sw, ok := node.(*Switch)
		if !ok {
			if h, ok := node.(*Host); ok && h.ID == dst {
				return links
			}
			return -1
		}
		first, n := sw.route(int(dst))
		if n == 0 {
			return -1
		}
		node = sw.Ports[first+pathID%n].Dst
	}
	return -1
}

// podSpec is a grouped-pod shape outside the catalogue: edge pairs under
// leaf pairs, every leaf meshed to every spine.
var podSpec = TopoSpec{HostsPerEdge: 4,
	Tiers:    []TierSpec{{Switches: 8, Groups: 4}, {Switches: 8, Groups: 1}, {Switches: 4}},
	HostRate: 100 * sim.Gbps, LinkDelay: sim.Microsecond}

// TestClosConnectivity walks the routes of every generated catalogue
// fabric (plus a grouped-pod shape outside the catalogue) for every host
// pair over several ECMP path IDs: every walk must terminate at the
// destination, and the hop count must be the tier-symmetric 2T for
// cross-fabric pairs (up to the common ancestor and back down).
func TestClosConnectivity(t *testing.T) {
	specs := map[string]TopoSpec{"leafspine": leafSpineSpec, "fattree": fatTreeSpec, "pods": podSpec}
	for name, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		net := BuildClos(sim.NewEngine(), spec, nil, 0)
		n := NodeID(len(net.Hosts))
		maxHops := 2 * len(spec.Tiers)
		for src := NodeID(0); src < n; src++ {
			for dst := NodeID(0); dst < n; dst++ {
				if src == dst {
					continue
				}
				for pathID := 0; pathID < 5; pathID++ {
					hops := routeWalk(net.Hosts[src].NIC.Dst, dst, pathID)
					if hops < 0 {
						t.Fatalf("%s: no route %d->%d (path %d)", name, src, dst, pathID)
					}
					if hops+1 > maxHops {
						t.Fatalf("%s: route %d->%d takes %d hops, max %d", name, src, dst, hops+1, maxHops)
					}
				}
			}
		}
	}
}

// referenceRoutes is the per-host routing table BuildClos built before
// routes became runs, kept as an oracle: for every switch, in
// Network.Switches order, and every host, the port indices the builder
// appended to the host's row as it wired the fabric in BuildClos's order.
func referenceRoutes(spec TopoSpec) [][][]int32 {
	sp := spec.normalized()
	T := len(sp.Tiers)
	nHosts := sp.Hosts()
	spans, perReach, _ := sp.reachGeometry()
	table := make([][][][]int32, T) // [tier][switch][host] -> row
	ports := make([][]int32, T)     // [tier][switch] -> ports wired so far
	for t := range table {
		table[t] = make([][][]int32, sp.Tiers[t].Switches)
		ports[t] = make([]int32, sp.Tiers[t].Switches)
		for i := range table[t] {
			table[t][i] = make([][]int32, nHosts)
		}
	}
	addPort := func(t, i int) int32 {
		ports[t][i]++
		return ports[t][i] - 1
	}
	reach := func(t, i int) (lo, hi int) {
		lo = i / perReach[t] * spans[t]
		return lo, lo + spans[t]
	}
	for e := range table[0] {
		for k := 0; k < sp.HostsPerEdge; k++ {
			table[0][e][e*sp.HostsPerEdge+k] = []int32{addPort(0, e)}
		}
	}
	addUplinks := func(t, c int) {
		var ups []int32
		for k := 0; k < sp.Tiers[t+1].Switches/sp.Tiers[t].Groups*sp.Tiers[t].Uplinks; k++ {
			ups = append(ups, addPort(t, c))
		}
		lo, hi := reach(t, c)
		for id := 0; id < nHosts; id++ {
			if id < lo || id >= hi {
				table[t][c][id] = ups
			}
		}
	}
	addDownlinks := func(t, p int) {
		g := p / (sp.Tiers[t].Switches / sp.Tiers[t-1].Groups)
		cpg := sp.Tiers[t-1].Switches / sp.Tiers[t-1].Groups
		for c := g * cpg; c < (g+1)*cpg; c++ {
			var downs []int32
			for u := 0; u < sp.Tiers[t-1].Uplinks; u++ {
				downs = append(downs, addPort(t, p))
			}
			lo, hi := reach(t-1, c)
			for id := lo; id < hi; id++ {
				table[t][p][id] = append(table[t][p][id], downs...)
			}
		}
	}
	if T > 1 {
		for e := range table[0] {
			addUplinks(0, e)
		}
		for t := 1; t < T-1; t++ {
			for p := range table[t] {
				addDownlinks(t, p)
				addUplinks(t, p)
			}
		}
		for p := range table[T-1] {
			addDownlinks(T-1, p)
		}
	}
	var rows [][][]int32
	for _, tier := range table {
		rows = append(rows, tier...)
	}
	return rows
}

// scaleSpec is the experiments package's ScaleFabric(n): an n-leaf,
// n-spine Clos with n hosts per leaf.
func scaleSpec(n int) TopoSpec {
	spec, err := ParseTopoSpec(fmt.Sprintf("clos:%d/%d,hosts=%d,delay=500ns", n, n, n))
	if err != nil {
		panic(err)
	}
	return spec
}

// FuzzClosRoutes holds every switch's route to every host to the table the
// builder used to store (referenceRoutes), over valid "clos:" fabrics of 1
// to 4 tiers: the run equals the reference row and lies inside the
// switch's ports, a walk from the switch reaches the host within 2T links,
// and a host outside [0, hosts) has no route anywhere. The seeds are the
// catalogue shapes, the scale sweep's widths, a grouped pod and a 4-tier
// stack with parallel links.
func FuzzClosRoutes(f *testing.F) {
	for _, spec := range []TopoSpec{singleSpec, microSpec, leafSpineSpec, fatTreeSpec, incastFabricSpec,
		scaleSpec(8), scaleSpec(16), scaleSpec(32), podSpec} {
		f.Add(spec.String())
	}
	f.Add("clos:8x2g4/8g2/4x2/2,hosts=2")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseTopoSpec(in)
		if err != nil || len(spec.Tiers) > 4 {
			return
		}
		// Bound the work: switches × hosts route checks, and the links built.
		sp := spec.normalized()
		switches, links := 0, 0
		for i, tier := range sp.Tiers {
			switches += tier.Switches
			if i+1 < len(sp.Tiers) {
				links += tier.Switches * sp.Tiers[i+1].Switches / tier.Groups * tier.Uplinks
			}
		}
		if spec.Hosts() > 1<<12 || switches*spec.Hosts() > 1<<17 || links > 1<<13 {
			return
		}
		net := BuildClos(sim.NewEngine(), spec, nil, 0)
		ref := referenceRoutes(spec)
		hosts := len(net.Hosts)
		for s, sw := range net.Switches {
			for d := 0; d < hosts; d++ {
				first, n := sw.route(d)
				if n < 1 || first < 0 || first+n > len(sw.Ports) {
					t.Fatalf("%s: %s's route to h%d is ports [%d, %d+%d) of %d", in, sw.Label, d, first, first, n, len(sw.Ports))
				}
				row := ref[s][d]
				if len(row) != n {
					t.Fatalf("%s: %s's route to h%d spans %d ports, the reference row %v", in, sw.Label, d, n, row)
				}
				for k, port := range row {
					if int(port) != first+k {
						t.Fatalf("%s: %s's route to h%d is ports [%d, %d), the reference row %v", in, sw.Label, d, first, first+n, row)
					}
				}
				for pathID := 0; pathID < 3; pathID++ {
					if links := routeWalk(sw, NodeID(d), pathID); links < 0 || links > 2*len(spec.Tiers) {
						t.Fatalf("%s: the walk from %s to h%d (path %d) crosses %d links", in, sw.Label, d, pathID, links)
					}
				}
			}
			for _, d := range []int{-1, hosts} {
				if _, n := sw.route(d); n != 0 {
					t.Fatalf("%s: %s routes host %d of %d", in, sw.Label, d, hosts)
				}
			}
		}
	})
}

// closBuildPerPortGrowth bounds how much a port's share of BuildClos's
// allocation may grow from the scale sweep's width 8 to width 32, a fabric
// with 16 times the hosts: the build state must grow with the ports, not
// with switches × hosts, as a per-host routing table on every switch did.
const closBuildPerPortGrowth = 1.1

// TestClosBuildPerPort gates the O(ports) build: BuildClos of the scale
// sweep's fabric at widths 8 and 32 with the default queue, the engine made
// outside the measured window, must allocate at width 32 no more than
// closBuildPerPortGrowth times the bytes and the mallocs per port (NICs
// included) it does at width 8.
func TestClosBuildPerPort(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	perPort := func(width int) (bytes, mallocs float64) {
		eng := sim.NewEngine()
		spec := scaleSpec(width)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net := BuildClos(eng, spec, nil, 0)
		runtime.ReadMemStats(&after)
		ports := float64(len(net.AllPorts()))
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / ports
		mallocs = float64(after.Mallocs-before.Mallocs) / ports
		t.Logf("clos:%d/%d: %.0f B and %.2f mallocs per port over %.0f ports", width, width, bytes, mallocs, ports)
		return bytes, mallocs
	}
	b8, m8 := perPort(8)
	b32, m32 := perPort(32)
	if b32 > closBuildPerPortGrowth*b8 {
		t.Errorf("BuildClos allocates %.0f B per port at width 32, over %.1f× the %.0f at width 8", b32, closBuildPerPortGrowth, b8)
	}
	if m32 > closBuildPerPortGrowth*m8 {
		t.Errorf("BuildClos makes %.2f mallocs per port at width 32, over %.1f× the %.2f at width 8", m32, closBuildPerPortGrowth, m8)
	}
}

// TestClosBaseRTT recomputes the zero-load RTT by hand — propagation both
// ways, full-frame serialization per forward hop, header-frame per reverse
// hop, pipeline and stack latency both ways — for a 1-, 2- and 3-tier fabric
// and checks the built network agrees.
func TestClosBaseRTT(t *testing.T) {
	handRTT := func(spec TopoSpec) sim.Duration {
		frame := WireSizeFor(MaxPayload)
		core := spec.coreRate()
		tiers := len(spec.Tiers)
		// The farthest pair traverses 2*tiers links: host->edge, 2(tiers-1)
		// core hops, edge->host; and 2*tiers-1 switch pipelines.
		rates := []sim.Rate{spec.HostRate, spec.HostRate}
		for i := 0; i < 2*(tiers-1); i++ {
			rates = append(rates, core)
		}
		var rtt sim.Duration
		for _, r := range rates {
			rtt += 2*spec.LinkDelay + sim.TxTime(frame, r) + sim.TxTime(HeaderSize, r)
		}
		rtt += 2 * sim.Duration(2*tiers-1) * spec.SwitchPipe
		rtt += 2 * spec.HostDelay
		return rtt
	}
	for name, spec := range map[string]TopoSpec{
		"single": singleSpec, "leafspine": leafSpineSpec,
		"fattree": fatTreeSpec, "incastfabric": incastFabricSpec,
	} {
		net := BuildClos(sim.NewEngine(), spec, nil, 0)
		if want := handRTT(spec); net.BaseRTT != want {
			t.Errorf("%s: BaseRTT = %s, hand-computed %s", name, net.BaseRTT, want)
		}
	}
}

// TestClosIDCollision is the >1000-host capacity-bug regression: a fixed ID
// stride of 1000 would collide switch IDs with host IDs on a
// 1024-host fabric. The generator scales the stride, and every node ID in
// the network must be unique.
func TestClosIDCollision(t *testing.T) {
	spec := TopoSpec{HostsPerEdge: 32, Tiers: []TierSpec{{Switches: 32}, {Switches: 32}},
		HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond}
	net := BuildClos(sim.NewEngine(), spec, nil, 0)
	if got := len(net.Hosts); got != 1024 {
		t.Fatalf("hosts = %d, want 1024", got)
	}
	seen := map[NodeID]string{}
	for _, h := range net.Hosts {
		if prev, dup := seen[h.ID]; dup {
			t.Fatalf("node ID %d used by both %s and h%d", h.ID, prev, h.ID)
		}
		seen[h.ID] = "h"
	}
	for _, sw := range net.Switches {
		if prev, dup := seen[sw.ID]; dup {
			t.Fatalf("node ID %d used by both %q and switch %s", sw.ID, prev, sw.Label)
		}
		seen[sw.ID] = sw.Label
	}
}

// TestParseTopoSpec checks the CLI grammar: round-trips through String,
// equivalence to the literal specs, and rejection of malformed input.
func TestParseTopoSpec(t *testing.T) {
	cases := map[string]TopoSpec{
		"clos:32x2g16/16/8,hosts=6,rate=100Gbps,delay=4us,hostdelay=1us":     fatTreeSpec,
		"clos:8/8,hosts=8,rate=100Gbps,delay=500ns":                          leafSpineSpec,
		"clos:9/4,hosts=16,rate=100Gbps,core=400Gbps,delay=200ns,pipe=250ns": incastFabricSpec,
		"clos:1,hosts=8,rate=10Gbps,delay=3us":                               singleSpec,
		"8/8,hosts=8,rate=100Gbps,delay=500ns":                               leafSpineSpec, // prefix optional
	}
	for in, want := range cases {
		got, err := ParseTopoSpec(in)
		if err != nil {
			t.Fatalf("ParseTopoSpec(%q): %v", in, err)
		}
		if gd, wd := BuildClos(sim.NewEngine(), got, nil, 0).StructureDigest(),
			BuildClos(sim.NewEngine(), want, nil, 0).StructureDigest(); gd != wd {
			t.Errorf("ParseTopoSpec(%q) builds a different fabric than its literal spec", in)
		}
		back, err := ParseTopoSpec(got.String())
		if err != nil {
			t.Fatalf("round-trip ParseTopoSpec(%q): %v", got.String(), err)
		}
		if back.String() != got.String() {
			t.Errorf("String round-trip: %q -> %q", got.String(), back.String())
		}
	}

	bad := []string{
		"clos:",                      // no tiers
		"clos:8/8",                   // valid grammar, but default hosts... (see below)
		"clos:8x/8,hosts=8",          // missing uplink count
		"clos:8/8,hosts=0",           // no hosts
		"clos:8/8,hosts=8,rate=fast", // bad rate
		"clos:8/8,hosts=8,frame=9000",
		"clos:8/8,hosts=8,hosts=4", // a key given twice
		"clos:4g2/2,hosts=2",       // partitioned: top boundary split into 2 groups
		"clos:3g2/2,hosts=2",       // groups don't divide switches
	}
	for _, in := range bad {
		if in == "clos:8/8" {
			// Defaults make this valid; it belongs in the good list.
			if _, err := ParseTopoSpec(in); err != nil {
				t.Errorf("ParseTopoSpec(%q): unexpected error %v", in, err)
			}
			continue
		}
		if _, err := ParseTopoSpec(in); err == nil {
			t.Errorf("ParseTopoSpec(%q): expected error", in)
		}
	}
}

// FuzzTopoSpecRoundTrip holds the "clos:" grammar to its contract, seeded
// with the catalogue shapes this file pins: ParseTopoSpec never panics, and
// an accepted spec renders through String to a spec that parses back and
// renders the same text.
func FuzzTopoSpecRoundTrip(f *testing.F) {
	for _, spec := range []TopoSpec{singleSpec, microSpec, leafSpineSpec, fatTreeSpec, incastFabricSpec} {
		f.Add(spec.String())
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseTopoSpec(in)
		if err != nil {
			return
		}
		out := spec.String()
		back, err := ParseTopoSpec(out)
		if err != nil {
			t.Fatalf("ParseTopoSpec(%q) renders %q, which does not parse: %v", in, out, err)
		}
		if again := back.String(); again != out {
			t.Fatalf("ParseTopoSpec(%q) renders %q, which renders %q", in, out, again)
		}
	})
}

// TestClosValidate exercises the spec-level rejections directly.
func TestClosValidate(t *testing.T) {
	good := TopoSpec{HostsPerEdge: 4, Tiers: []TierSpec{{Switches: 4}, {Switches: 2}},
		HostRate: 100 * sim.Gbps}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []TopoSpec{
		{}, // no tiers
		{HostsPerEdge: 4, Tiers: []TierSpec{{Switches: 4}}},                                               // no rate
		{HostsPerEdge: 0, Tiers: []TierSpec{{Switches: 4}}, HostRate: sim.Gbps},                           // no hosts
		{HostsPerEdge: 4, Tiers: []TierSpec{{Switches: 4, Groups: 3}, {Switches: 2}}, HostRate: sim.Gbps}, // 3 ∤ 4
		{HostsPerEdge: 4, Tiers: []TierSpec{{Switches: 4, Groups: 2}, {Switches: 2}}, HostRate: sim.Gbps}, // partitioned
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
