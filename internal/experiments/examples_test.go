package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/scenario"
)

// examplesDir is the checked-in scenario corpus of the repository root.
const examplesDir = "../../examples/scenarios"

// exampleDigests pins the content digest of every example scenario file —
// the `make scenario` gate. Editing an example is fine; this table just has
// to move in the same commit, like goldenDigests does for behavior.
var exampleDigests = map[string]string{
	"golden-xpass.json":        "3c694016a76fd70cdff614623ffc0050a772023d4cd95474b4a21e105819ce82",
	"fig2-first-rtt-cell.json": "99a6c688c61f75d76c42db28c2d05af36510c26045eb162ae1b9bd853b3a3423",
	"degrade-flap.json":        "df77fda0a2d9ee916d05476ba22a17cb962049cbfc34544e05b3ad2cba6e6972",
	"scale-clos256.json":       "3caba9b05e51e45ec67ad237855556660a3c33ec232cf1c9d465d46ce81b0758",
}

// TestExampleScenarios parses and semantically validates every checked-in
// example, checks its pinned digest and both-form round trip, and verifies
// no example exists without a pin (or vice versa).
func TestExampleScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range files {
		base := filepath.Base(path)
		seen[base] = true
		sc, err := scenario.Load(path)
		if err != nil {
			t.Errorf("%s: %v", base, err)
			continue
		}
		if err := CheckScenario(Config{}, sc); err != nil {
			t.Errorf("%s: %v", base, err)
			continue
		}
		want, ok := exampleDigests[base]
		if !ok {
			t.Errorf("%s exists but is not pinned in exampleDigests (digest %s)", base, sc.Digest())
			continue
		}
		if got := sc.Digest(); got != want {
			t.Errorf("%s: digest drifted:\n got  %s\n want %s", base, got, want)
		}
		reparsed, err := scenario.Parse(base, []byte(sc.Text()))
		if err != nil {
			t.Errorf("%s: canonical text does not reparse: %v", base, err)
		} else if !reflect.DeepEqual(reparsed, sc) {
			t.Errorf("%s: text round trip diverged", base)
		}
	}
	for base := range exampleDigests {
		if !seen[base] {
			t.Errorf("exampleDigests pins %s but the file is gone", base)
		}
	}
}

// TestExampleScenarioRuns executes the smallest example — the golden trace —
// end to end through the scenario path and requires the pinned golden
// behavior digest: the file on disk, not the Go value, reproduces the run.
func TestExampleScenarioRuns(t *testing.T) {
	sc, err := scenario.Load(filepath.Join(examplesDir, "golden-xpass.json"))
	if err != nil {
		t.Fatal(err)
	}
	sem, spec, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(Config{}.ForScenario(sem), spec)
	if got, want := r.Digest(), goldenDigests["xpass"]; got != want {
		t.Errorf("example golden-xpass.json does not reproduce the golden digest:\n got  %s\n want %s", got, want)
	}
}
