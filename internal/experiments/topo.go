package experiments

import (
	"fmt"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// TopoDef is one entry of the topology catalogue: a name, a human-readable
// description, and the parameterized spec netem.BuildClos turns into a
// fabric. The catalogue replaces the old per-name build/host-count/load
// switches — every topology-dependent fact the harness needs is derived from
// the spec, so a name the catalogue does not know is a hard error instead of
// a silently wrong default.
type TopoDef struct {
	Name  string
	About string
	Spec  netem.TopoSpec

	// LoadFactor, when nonzero, overrides Spec.CoreLoadFactor() as the
	// core-to-edge load conversion. The catalogue pins the hand-derived
	// historical constants here (leafspine's 7/8 is a deliberate rounding of
	// the exact 56/63) so experiment outputs stay bit-identical to the
	// string-switch era; "clos:" specs use the computed factor.
	LoadFactor float64
}

// loadFactor resolves the effective core-to-edge conversion factor.
func (d TopoDef) loadFactor() float64 {
	if d.LoadFactor != 0 {
		return d.LoadFactor
	}
	return d.Spec.CoreLoadFactor()
}

// EdgeLoad converts the paper's quoted core load into the edge load the
// Poisson generator targets, accounting for oversubscription and the
// fraction of traffic that crosses the core.
func (d TopoDef) EdgeLoad(coreLoad float64) float64 { return coreLoad / d.loadFactor() }

// Hosts returns the topology's host count.
func (d TopoDef) Hosts() int { return d.Spec.Hosts() }

// Build constructs the fabric with the scheme's qdisc factory and full-frame
// size on an engine backed by the named scheduler.
func (d TopoDef) Build(qf netem.QdiscFactory, frameBytes int, sched sim.SchedulerKind) *netem.Network {
	return netem.BuildClos(sim.NewEngineWith(sched), d.Spec, qf, frameBytes)
}

// TopoCatalogue lists the named topologies, in presentation order.
var TopoCatalogue = []TopoDef{
	{
		Name:  TopoFatTree,
		About: "8 spine/16 leaf/32 ToR, 192 hosts, 100G, 3:1 ToR oversubscription (ExpressPass paper)",
		Spec: netem.TopoSpec{HostsPerEdge: 6,
			Tiers:    []netem.TierSpec{{Switches: 32, Uplinks: 2, Groups: 16}, {Switches: 16}, {Switches: 8}},
			HostRate: 100 * sim.Gbps, LinkDelay: 4 * sim.Microsecond, HostDelay: sim.Microsecond},
		// 3:1 oversubscribed ToRs; ~97% of random pairs cross the ToR.
		LoadFactor: 3.0 * 186.0 / 191.0,
	},
	{
		Name:  TopoLeafSpine,
		About: "8 spine/8 leaf, 64 hosts, 100G non-blocking (Homa/NDP papers)",
		Spec: netem.TopoSpec{HostsPerEdge: 8,
			Tiers:    []netem.TierSpec{{Switches: 8}, {Switches: 8}},
			HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond},
		// Non-blocking; 7/8 of random pairs cross the core (historical
		// rounding of the exact 56/63, pinned for output stability).
		LoadFactor: 7.0 / 8.0,
	},
	{
		Name:  TopoSingleSwitch,
		About: "8 hosts on one 10G switch (hardware testbed)",
		Spec: netem.TopoSpec{HostsPerEdge: 8, Tiers: []netem.TierSpec{{Switches: 1}},
			HostRate: 10 * sim.Gbps, LinkDelay: 3 * sim.Microsecond},
		LoadFactor: 1,
	},
	{
		Name:  TopoIncastFabric,
		About: "4 spine/9 leaf, 144 hosts, 100G edge/400G core (Fig. 17/18)",
		Spec: netem.TopoSpec{HostsPerEdge: 16,
			Tiers:    []netem.TierSpec{{Switches: 9}, {Switches: 4}},
			HostRate: 100 * sim.Gbps, CoreRate: 400 * sim.Gbps,
			LinkDelay: 200 * sim.Nanosecond, SwitchPipe: 250 * sim.Nanosecond},
		// 16x100G hosts per leaf against 4x400G uplinks: non-blocking; only
		// the cross-leaf fraction of traffic exercises the core.
		LoadFactor: 128.0 / 143.0,
	},
	{
		Name:  TopoMicro,
		About: "24 hosts on one 100G switch (Fig. 15/16, Table 5)",
		Spec: netem.TopoSpec{HostsPerEdge: 24, Tiers: []netem.TierSpec{{Switches: 1}},
			HostRate: 100 * sim.Gbps, LinkDelay: sim.Microsecond},
		LoadFactor: 1,
	},
}

// ResolveTopo maps a -topo value to its definition: a catalogue name, or a
// "clos:" spec (see netem.ParseTopoSpec) for ad-hoc parameterized fabrics.
// Anything else is an error that lists every known topology — an unknown
// name is a configuration bug, never a silently empty simulation.
func ResolveTopo(name string) (TopoDef, error) {
	for _, d := range TopoCatalogue {
		if d.Name == name {
			return d, nil
		}
	}
	if strings.HasPrefix(name, "clos:") {
		spec, err := netem.ParseTopoSpec(name)
		if err != nil {
			return TopoDef{}, fmt.Errorf("experiments: %v", err)
		}
		return TopoDef{Name: spec.String(), About: "parameterized Clos fabric", Spec: spec}, nil
	}
	return TopoDef{}, fmt.Errorf("experiments: unknown topology %q; known topologies:\n%s", name, TopoCatalog())
}

// TopoCatalog renders the topology catalogue as an aligned listing, closed by
// the "clos:" escape hatch — the -list-topos output and the unknown-name
// error body.
func TopoCatalog() string {
	var sb strings.Builder
	for _, d := range TopoCatalogue {
		fmt.Fprintf(&sb, "  %-12s %s\n", d.Name, d.About)
	}
	sb.WriteString("or a clos:<tier>/<tier>...[,key=value]... spec, e.g. \"clos:32/32,hosts=32,delay=500ns\"")
	return sb.String()
}
