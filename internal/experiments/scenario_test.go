package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/scenario"
)

// goldenScenarioDigests pins the scenario (content) digest of every golden
// run, alongside the behavior digests of golden_test.go: the scenario digest
// says *what* is run, the behavior digest says what it *did*, and the pair is
// the cache key the future result store hinges on. Regenerate with
// `aeolusbench -digest` (it prints both) after an intentional change to the
// golden trace's definition.
var goldenScenarioDigests = map[string]string{
	"xpass":        "3c694016a76fd70cdff614623ffc0050a772023d4cd95474b4a21e105819ce82",
	"xpass+aeolus": "454b415865c28f75d0d582fa3578655d27df098a07256814f40c7662f342dd55",
	"xpass+oracle": "e767597631ec022ef9aa2e4d5985c421085b898a5f46dc02337ff7bf25c7fbd4",
	"xpass+prio":   "e3eb16a97f0869f029364851d43895b4e76730623f33985a0b88be96bee2a688",
	"homa":         "90a48a9a58ffeead495f70c1e673c051c97c195a9a7362ecb2d3f59f479d1b38",
	"homa+aeolus":  "d24e626b99fd0a07ecb9df72639af9ecbb8b196f51846f2ee57acd0a1ecf7983",
	"homa+oracle":  "fe8200bbfa66de8425f785206543f1e9c81941c53d9e766bc2fb82cc8d37e9f1",
	"homa-eager":   "1d57cca63fb5fdc13386c7601dc32eed88ae9a52cd1d5413cbb927f2cc4fb4c4",
	"ndp":          "c8d5ebea28abf15938d98b84d09322b93040e96b46abc2ed9187d87472e2ec80",
	"ndp+aeolus":   "16407683cb8e88199e7e2ee5bb2450b5cc64ee89ac71be69f64d84f822866a79",
}

// registryScenarioDigests pins, per registry experiment, the hash of the
// scenario digests its runs resolve to under DefaultConfig (full sweeps, not
// -quick) — the aggregate identity of "which runs this figure means". A drift
// here is a semantic change to an experiment's definition and must be as
// deliberate as a goldenDigests update. Regenerate by hashing the Digest()
// lines of `aeolusbench -scenarios <id>` or with the loop in
// TestRegistryScenarioDigests below.
var registryScenarioDigests = map[string]string{
	"fig1":     "b6f971cd5912d1c38d8ad564be4a380eb8d3ff1ef75a6928e6e8f4b530bc60a1",
	"fig3":     "91ed9a9c34755771cbed81d86a1345469139614eb27867c6e6b2516d931829d0",
	"fig4":     "9f13ae26002c74b05a563393ea5cd97af40f1ac155f53d41ba6c04368acb08a6",
	"table1":   "ba8ec2f9cf602883a3042ad8dc4dde2f4583f8321be762bf99c5501037d7d6d8",
	"fig8":     "c4171e7ed55d2de7a9ef1971af1d189f4d3fd30424567e6bfa3510b46411e6d2",
	"fig9":     "46c05bdae6708e7c3182492018208a93ca6e9b1953d8bbf15c64ab73640eb776",
	"fig10":    "70ba6876132ce4cc2f6882d4dbebd1077400594aa99ea849904050e6ea1c734a",
	"fig11":    "5d8cb6a3613d180af9079fe3f3c03462b2430177403b3a78838b5181ab6d20d3",
	"fig12":    "0f887856a09bf9d7ec9913e12e7efe417336ee43336bcabfab9df4e08bffa585",
	"fig13":    "8d0dc435f39aa93a7051b2729000194bf2e5cee8e621065073342841f074d849",
	"table3":   "f9b7fa8842e5aca444e9b8a4a7ba03a27a98c8cb356f85d80b5b0bf1d4ae62b8",
	"fig14":    "26a4aa46f27ede73f027743c814cd62d87bd3aca10a3a2b2007901577a9f4a15",
	"table4":   "6e998249626aca082d19bb02ed9ebb3ca9c865392918e897ab035adc0f27a8ac",
	"table5":   "4e9d314bebcf7c0c7a5d93cd027b4a99772981ea2f98a5006914867d165bb9c6",
	"fig17":    "fff34b16c50081296d4e06cbf0c689fcfd2ac408e73d1be3f094b34ad561724c",
	"fig18":    "57dfee54ede896a5edc5b12e03cb26900baaf30e38bcee76810bfe494ab1b6cc",
	"ablation": "19db343561e1190c06754a6873948895e11164ca1c418931643b443bd82255cb",
	"degrade":  "bfad07f6a0ea03d357a99ba128ea9f77ae99aa448864da08920be4da5e794df8",
	"scale":    "c354978c63e0ea63054c211a9c0d3a47d9185cddec1f06fad14ac9903ba6a88e",
}

// TestGoldenScenarioDigests pins the content identity of the golden runs.
func TestGoldenScenarioDigests(t *testing.T) {
	for id, want := range goldenScenarioDigests {
		sc := GoldenScenario(id)
		if got := sc.Digest(); got != want {
			t.Errorf("%s: golden scenario digest drifted:\n got  %s\n want %s", id, got, want)
		}
	}
	if len(goldenScenarioDigests) != len(Schemes()) {
		t.Errorf("catalogue has %d schemes, goldenScenarioDigests pins %d",
			len(Schemes()), len(goldenScenarioDigests))
	}
}

// TestRegistryScenarioDigests pins the aggregate scenario identity of every
// registry experiment that declares runs, and checks each declared scenario
// passes full semantic validation and survives both serialization forms.
func TestRegistryScenarioDigests(t *testing.T) {
	covered := 0
	for _, e := range Registry {
		if e.Scenarios == nil {
			continue
		}
		covered++
		h := sha256.New()
		for i, sc := range e.Scenarios(DefaultConfig()) {
			if err := CheckScenario(Config{}, &sc); err != nil {
				t.Fatalf("%s[%d]: %v", e.ID, i, err)
			}
			// Both interchange forms must reproduce the value exactly; the
			// digest is defined over the canonical text.
			reparsed, err := scenario.Parse(fmt.Sprintf("%s[%d]", e.ID, i), []byte(sc.Text()))
			if err != nil {
				t.Fatalf("%s[%d]: reparse text: %v", e.ID, i, err)
			}
			if !reflect.DeepEqual(reparsed, &sc) {
				t.Fatalf("%s[%d]: text round trip diverged:\n%s", e.ID, i, sc.Text())
			}
			buf, err := sc.JSON()
			if err != nil {
				t.Fatalf("%s[%d]: %v", e.ID, i, err)
			}
			fromJSON, err := scenario.Parse(fmt.Sprintf("%s[%d].json", e.ID, i), buf)
			if err != nil {
				t.Fatalf("%s[%d]: reparse json: %v", e.ID, i, err)
			}
			if !reflect.DeepEqual(fromJSON, &sc) {
				t.Fatalf("%s[%d]: json round trip diverged", e.ID, i)
			}
			fmt.Fprintln(h, sc.Digest())
		}
		got := fmt.Sprintf("%x", h.Sum(nil))
		want, ok := registryScenarioDigests[e.ID]
		if !ok {
			t.Errorf("%s declares scenarios but has no pinned digest; add %q: %q,", e.ID, e.ID, got)
			continue
		}
		if got != want {
			t.Errorf("%s: registry scenario digest drifted:\n got  %s\n want %s", e.ID, got, want)
		}
	}
	if covered != len(registryScenarioDigests) {
		t.Errorf("registry declares scenarios for %d experiments, table pins %d", covered, len(registryScenarioDigests))
	}
}

// TestScenarioDrivenGolden is the acceptance criterion of the scenario
// refactor made executable: serializing a golden scenario to its canonical
// text, parsing it back, and running it through the scenario path
// (FromScenario + ForScenario) reproduces the pinned behavior digest, with
// the packet pool on and off. The run identity of a scheme is its scenario
// file — nothing the Go code adds on the side.
func TestScenarioDrivenGolden(t *testing.T) {
	for _, id := range []string{"xpass", "homa+aeolus", "ndp"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			src := GoldenScenario(id)
			sc, err := scenario.Parse(id, []byte(src.Text()))
			if err != nil {
				t.Fatal(err)
			}
			sem, spec, err := FromScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, pool := range []bool{true, false} {
				rt := Config{}
				if !pool {
					rt = poolOff(rt)
				}
				r := Run(rt.ForScenario(sem), spec)
				if got, want := r.Digest(), goldenDigests[id]; got != want {
					t.Errorf("scenario-driven golden diverged (pool=%v):\n got  %s\n want %s",
						pool, got, want)
				}
			}
		})
	}
}

// TestForScenarioKeepsRuntimeKnobs checks the Config layering: semantic
// fields come from the scenario, runtime knobs survive from the caller.
func TestForScenarioKeepsRuntimeKnobs(t *testing.T) {
	rt := DefaultConfig()
	rt.Parallel = 7
	rt.Shards = 2
	rt.Audit = true
	sem := Config{Budget: 1 << 20, MinFlows: 3, MaxFlows: 9, Seed: 42}
	out := rt.ForScenario(sem)
	if out.Budget != 1<<20 || out.MinFlows != 3 || out.MaxFlows != 9 || out.Seed != 42 {
		t.Errorf("semantic fields not layered: %+v", out)
	}
	if out.Parallel != 7 || out.Shards != 2 || !out.Audit {
		t.Errorf("runtime knobs lost: %+v", out)
	}
}

// TestCheckRunRejectsUnservableTraffic covers traffic the generators cannot
// serve on the chosen fabric. Each case used to pass validation and then
// panic or misbehave inside the run: a one-host fabric leaves no sender for
// an incast (divide by zero) or a Poisson pair (IntN(0)), a receiver outside
// the fabric has no route, and a zero load makes every Poisson arrival start
// at once. CheckScenario, and so every CLI, must reject each with an error
// naming the bad value.
func TestCheckRunRejectsUnservableTraffic(t *testing.T) {
	incast := &scenario.IncastSpec{Fanin: 3, MsgSize: 64_000}
	webSearch := &scenario.WorkloadSpec{Name: "WebSearch"}
	for _, c := range []struct {
		name string
		sc   scenario.Scenario
		want string
	}{
		{"one-host incast", scenario.Scenario{Topo: "clos:1,hosts=1", Scheme: "xpass", Incast: incast}, "has 1 host"},
		{"one-host workload", scenario.Scenario{Topo: "clos:1,hosts=1", Scheme: "xpass",
			Workload: webSearch, CoreLoad: 0.4, Flows: 5}, "has 1 host"},
		{"receiver outside fabric", scenario.Scenario{Topo: TopoSingleSwitch, Scheme: "xpass",
			Incast: &scenario.IncastSpec{Fanin: 3, Receiver: 100, MsgSize: 64_000}}, "receiver 100"},
		{"zero load", scenario.Scenario{Topo: TopoSingleSwitch, Scheme: "xpass",
			Workload: webSearch, Flows: 100}, "core load 0"},
	} {
		sc := c.sc
		if err := CheckScenario(Config{}, &sc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckScenario = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
	// The same runs with a servable fabric, receiver and load pass.
	for _, sc := range []scenario.Scenario{
		{Topo: "clos:1,hosts=2", Scheme: "xpass", Incast: incast},
		{Topo: TopoSingleSwitch, Scheme: "xpass", Incast: &scenario.IncastSpec{Fanin: 3, Receiver: 7, MsgSize: 64_000}},
		{Topo: TopoSingleSwitch, Scheme: "xpass", Workload: webSearch, CoreLoad: 0.4, Flows: 100},
	} {
		if err := CheckScenario(Config{}, &sc); err != nil {
			t.Errorf("CheckScenario(%s on %s): %v", sc.Scheme, sc.Topo, err)
		}
	}
}
