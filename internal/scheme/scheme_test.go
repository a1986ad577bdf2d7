package scheme_test

import (
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scheme"
	"github.com/aeolus-transport/aeolus/internal/sim"

	// Populate the registry under test exactly the way consumers do.
	_ "github.com/aeolus-transport/aeolus/internal/transport/expresspass"
	_ "github.com/aeolus-transport/aeolus/internal/transport/homa"
	_ "github.com/aeolus-transport/aeolus/internal/transport/ndp"
)

// paperSchemes are the ten configurations of the paper's evaluation; the
// registry must always cover them.
var paperSchemes = []string{
	"xpass", "xpass+aeolus", "xpass+oracle", "xpass+prio",
	"homa", "homa+aeolus", "homa+oracle", "homa-eager",
	"ndp", "ndp+aeolus",
}

// TestRegistryComplete asserts every catalogued ID builds into a usable
// scheme: non-empty display name, positive MSS, live qdisc factory and
// protocol constructor.
func TestRegistryComplete(t *testing.T) {
	entries := scheme.Entries()
	if len(entries) == 0 {
		t.Fatal("empty registry: transport packages did not register")
	}
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.ID] = true
		if e.Summary == "" {
			t.Errorf("%s: empty summary", e.ID)
		}
		s, err := e.Build(scheme.Spec{ID: e.ID, Seed: 1})
		if err != nil {
			t.Errorf("%s: build: %v", e.ID, err)
			continue
		}
		if s.Name == "" {
			t.Errorf("%s: empty display name", e.ID)
		}
		if s.MSS <= 0 {
			t.Errorf("%s: MSS %d", e.ID, s.MSS)
		}
		if s.Factory == nil || s.New == nil {
			t.Errorf("%s: nil factory or constructor", e.ID)
			continue
		}
		if qf := s.Factory(netem.DefaultBuffer); qf == nil {
			t.Errorf("%s: Factory returned nil QdiscFactory", e.ID)
		} else if q := qf(netem.SwitchToHost, 100*sim.Gbps); q == nil {
			t.Errorf("%s: QdiscFactory built nil qdisc", e.ID)
		}
	}
	for _, id := range paperSchemes {
		if !seen[id] {
			t.Errorf("paper scheme %s missing from registry", id)
		}
	}
}

// TestBuildUnknownCarriesCatalogue asserts the error for an unknown ID
// embeds the printable catalogue.
func TestBuildUnknownCarriesCatalogue(t *testing.T) {
	_, err := scheme.Build(scheme.Spec{ID: "nope"})
	if err == nil {
		t.Fatal("unknown ID did not error")
	}
	for _, id := range paperSchemes {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error missing catalogue entry %s: %v", id, err)
		}
	}
}

// TestOptsPassThrough exercises the generic -opt plumbing: valid keys
// apply silently, bad values and unknown keys surface as Build errors
// naming the key, and durations parse in the sim units.
func TestOptsPassThrough(t *testing.T) {
	if _, err := scheme.Build(scheme.Spec{ID: "xpass",
		Opts: map[string]string{"initrate": "0.25", "targetloss": "0.1"}}); err != nil {
		t.Errorf("valid opts rejected: %v", err)
	}
	if _, err := scheme.Build(scheme.Spec{ID: "homa",
		Opts: map[string]string{"overcommit": "4", "spray": "false"}}); err != nil {
		t.Errorf("valid opts rejected: %v", err)
	}
	if _, err := scheme.Build(scheme.Spec{ID: "ndp",
		Opts: map[string]string{"trimpkts": "twelve"}}); err == nil {
		t.Error("bad value accepted")
	} else if !strings.Contains(err.Error(), "trimpkts") {
		t.Errorf("error does not name the key: %v", err)
	}
	if _, err := scheme.Build(scheme.Spec{ID: "xpass",
		Opts: map[string]string{"warp": "9"}}); err == nil {
		t.Error("unknown key accepted")
	} else if !strings.Contains(err.Error(), "initrate, aggressiveness, targetloss, probetimeout, maxproberesends") {
		t.Errorf("unknown-key error does not list the option table: %v", err)
	}
	// Durations take the sim units of every other grammar: ps included, a
	// bare number as picoseconds, no Go-only units.
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		for v, ok := range map[string]bool{"2500ps": true, "2500": true, "1.5us": true, "1m": false, "-1us": false} {
			_, err := scheme.Build(scheme.Spec{ID: id, Opts: map[string]string{"probetimeout": v}})
			if (err == nil) != ok {
				t.Errorf("%s -opt probetimeout=%s: error %v, want accepted=%v", id, v, err, ok)
			}
		}
	}
}

// TestLookupAndIDs covers the enumeration surface the CLIs sit on.
func TestLookupAndIDs(t *testing.T) {
	if _, ok := scheme.Lookup("xpass"); !ok {
		t.Error("Lookup(xpass) missed")
	}
	if _, ok := scheme.Lookup("nope"); ok {
		t.Error("Lookup(nope) hit")
	}
	ids := scheme.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
	if cat := scheme.Catalog(); !strings.Contains(cat, "xpass+aeolus") {
		t.Errorf("catalogue missing entries:\n%s", cat)
	}
}
