package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// catalogueDigests pins the structural digest of every catalogue fabric (the
// same table internal/netem/clos_test.go pins, captured from the retired
// hand-written builders). A mismatch means someone edited a catalogue spec —
// which silently changes every experiment run on that topology.
var catalogueDigests = map[string]string{
	TopoSingleSwitch: "2f96ca96ee2f8e7b68a46c5629a16baf46c16beb4bf711b1265023503923c3da",
	TopoMicro:        "c2bb422e3b37b1d5bba22b65c130a49c3b805f737bd4b20689f8a0b59c2d1eb5",
	TopoLeafSpine:    "1a45d2dae1317ecc8255b82a36413ce2d5fb8a7bac11dd7975fa85f125777f33",
	TopoFatTree:      "1629024767e6a3e821a2913897180f85c6fcf216c04aef442d7142da2fd008ca",
	TopoIncastFabric: "e9fb1b11d9af34a1f152fe22f721e22f968cf2f03912a19acc2bdd80eb738fbf",
}

func TestCataloguePinsLegacyFabrics(t *testing.T) {
	if len(catalogueDigests) != len(TopoCatalogue) {
		t.Fatalf("digest table has %d entries, catalogue %d", len(catalogueDigests), len(TopoCatalogue))
	}
	for _, d := range TopoCatalogue {
		want, ok := catalogueDigests[d.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", d.Name)
			continue
		}
		got := netem.BuildClos(sim.NewEngine(), d.Spec, nil, 0).StructureDigest()
		if got != want {
			t.Errorf("%s: structure digest %s, pinned %s — catalogue spec changed", d.Name, got, want)
		}
	}
}

// TestResolveTopoUnknownListsCatalogue is the regression test for the old
// silent-default bug: an unknown name used to fall through hostsIn's zero
// default and simulate nothing. It must now be a hard error whose text names
// every catalogue entry and the clos: escape hatch.
func TestResolveTopoUnknownListsCatalogue(t *testing.T) {
	_, err := ResolveTopo("leafspien")
	if err == nil {
		t.Fatal("unknown topology resolved without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"leafspien"`) {
		t.Errorf("error does not echo the bad name: %s", msg)
	}
	for _, d := range TopoCatalogue {
		if !strings.Contains(msg, d.Name) {
			t.Errorf("error does not list catalogue entry %s: %s", d.Name, msg)
		}
	}
	if !strings.Contains(msg, "clos:") {
		t.Errorf("error does not mention the clos: grammar: %s", msg)
	}
	if !strings.Contains(TopoCatalog(), TopoFatTree) {
		t.Error("TopoCatalog omits the fat-tree entry")
	}
}

func TestResolveTopoClosSpec(t *testing.T) {
	d, err := ResolveTopo("clos:8/8,hosts=8,rate=100Gbps,delay=500ns")
	if err != nil {
		t.Fatal(err)
	}
	if d.Hosts() != 64 {
		t.Errorf("hosts = %d, want 64", d.Hosts())
	}
	// Ad-hoc specs use the computed load factor, not a pinned catalogue one.
	want := d.Spec.CoreLoadFactor()
	if got := 1 / d.EdgeLoad(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("load factor = %g, want computed %g", got, want)
	}
	if _, err := ResolveTopo("clos:9g2/8,hosts=8"); err == nil {
		t.Error("invalid clos spec (2 groups over 9 switches) resolved without error")
	}
}

// TestCatalogueEdgeLoads pins the historical core-to-edge conversions the
// string-switch harness used, so experiment workloads stay bit-identical.
func TestCatalogueEdgeLoads(t *testing.T) {
	cases := []struct {
		name   string
		factor float64
	}{
		{TopoFatTree, 3.0 * 186.0 / 191.0},
		{TopoLeafSpine, 7.0 / 8.0},
		{TopoSingleSwitch, 1},
		{TopoIncastFabric, 128.0 / 143.0},
		{TopoMicro, 1},
	}
	for _, tc := range cases {
		d, err := ResolveTopo(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := 0.8 / d.EdgeLoad(0.8); got != tc.factor {
			t.Errorf("%s: load factor %v, want %v", tc.name, got, tc.factor)
		}
	}
}
