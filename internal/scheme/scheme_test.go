package scheme_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scheme"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// paperSchemes are the ten configurations of the paper's evaluation, in
// catalogue order: ExpressPass, Homa and NDP, each original, with Aeolus,
// and as the oracle, prio or eager variant.
var paperSchemes = []string{
	"xpass", "xpass+aeolus", "xpass+oracle", "xpass+prio",
	"homa", "homa+aeolus", "homa+oracle", "homa-eager",
	"ndp", "ndp+aeolus",
}

// TestRegistryComplete checks every entry the transports declare through
// Family.Entries: a non-empty ID no other entry has, a summary, and a build
// into a usable scheme (display name, positive MSS, live queue factory and
// protocol constructor). The catalogue is the paper's ten schemes in
// listing order.
func TestRegistryComplete(t *testing.T) {
	var ids []string
	for _, e := range experiments.Schemes() {
		if e.ID == "" || slices.Contains(ids, e.ID) {
			t.Errorf("catalogue ID %q is empty or listed twice", e.ID)
		}
		ids = append(ids, e.ID)
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
			t.Errorf("%s: Factory returned nil QueueFactory", e.ID)
		} else if q := qf(netem.SwitchToHost, 100*sim.Gbps); q == nil {
			t.Errorf("%s: QueueFactory built nil queue", e.ID)
		}
	}
	if !slices.Equal(ids, paperSchemes) {
		t.Errorf("catalogue lists %v, want %v", ids, paperSchemes)
	}
}

// TestBuildUnknownCarriesCatalogue asserts the error for an unknown ID
// embeds the printable catalogue, one line per scheme.
func TestBuildUnknownCarriesCatalogue(t *testing.T) {
	_, err := experiments.MakeScheme(scheme.Spec{ID: "nope"})
	if err == nil {
		t.Fatal("unknown ID did not error")
	}
	for _, id := range paperSchemes {
		if !strings.Contains(err.Error(), "\n  "+id+" ") {
			t.Errorf("error missing catalogue entry %s: %v", id, err)
		}
	}
}

// TestOptsPassThrough exercises the generic -opt plumbing: valid keys
// apply silently, bad values and unknown keys surface as build errors
// naming the key, and durations parse in the sim units.
func TestOptsPassThrough(t *testing.T) {
	if _, err := experiments.MakeScheme(scheme.Spec{ID: "xpass",
		Opts: map[string]string{"initrate": "0.25", "targetloss": "0.1"}}); err != nil {
		t.Errorf("valid opts rejected: %v", err)
	}
	if _, err := experiments.MakeScheme(scheme.Spec{ID: "homa",
		Opts: map[string]string{"overcommit": "4", "spray": "false"}}); err != nil {
		t.Errorf("valid opts rejected: %v", err)
	}
	if _, err := experiments.MakeScheme(scheme.Spec{ID: "ndp",
		Opts: map[string]string{"trimpkts": "twelve"}}); err == nil {
		t.Error("bad value accepted")
	} else if !strings.Contains(err.Error(), "trimpkts") {
		t.Errorf("error does not name the key: %v", err)
	}
	if _, err := experiments.MakeScheme(scheme.Spec{ID: "xpass",
		Opts: map[string]string{"warp": "9"}}); err == nil {
		t.Error("unknown key accepted")
	} else if !strings.Contains(err.Error(), "initrate, aggressiveness, targetloss, probetimeout, maxproberesends") {
		t.Errorf("unknown-key error does not list the option table: %v", err)
	}
	// Durations take the sim units of every other grammar: ps included, a
	// bare number as picoseconds, no Go-only units.
	for _, id := range []string{"xpass+aeolus", "homa+aeolus", "ndp+aeolus"} {
		for v, ok := range map[string]bool{"2500ps": true, "2500": true, "1.5us": true, "1m": false, "-1us": false} {
			_, err := experiments.MakeScheme(scheme.Spec{ID: id, Opts: map[string]string{"probetimeout": v}})
			if (err == nil) != ok {
				t.Errorf("%s -opt probetimeout=%s: error %v, want accepted=%v", id, v, err, ok)
			}
		}
	}
}

// TestLookupAndIDs covers the enumeration surface the CLIs sit on: every
// listed ID resolves, an unlisted one does not, and SchemeCatalog prints
// the IDs in listing order.
func TestLookupAndIDs(t *testing.T) {
	var ids []string
	for _, e := range experiments.Schemes() {
		ids = append(ids, e.ID)
		if _, err := experiments.MakeScheme(scheme.Spec{ID: e.ID}); err != nil {
			t.Errorf("lookup %s: %v", e.ID, err)
		}
	}
	if _, err := experiments.MakeScheme(scheme.Spec{ID: "nope"}); err == nil {
		t.Error("lookup nope hit")
	}
	var listed []string
	for _, l := range strings.Split(experiments.SchemeCatalog(), "\n") {
		if f := strings.Fields(l); len(f) > 1 {
			listed = append(listed, f[0])
		}
	}
	if !slices.Equal(listed, ids) {
		t.Errorf("SchemeCatalog lists %v, want %v", listed, ids)
	}
}
