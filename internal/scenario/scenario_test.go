package scenario

import (
	"reflect"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// full returns a scenario exercising every field.
func full(t *testing.T) *Scenario {
	t.Helper()
	tl, err := netem.ParseTimeline("test", []byte(
		"0s sw0->* loss rate=0.01\n50us sw0->h0 fail\n150us sw0->h0 restore"))
	if err != nil {
		t.Fatal(err)
	}
	s := &Scenario{
		Name:   "kitchen-sink",
		Topo:   "clos:16x4,edge=40G,core=100G",
		Scheme: "xpass+aeolus",
		Opts:   map[string]string{"retrylimit": "4", "wmin": "0.03125"},
		RTO:    10 * sim.Millisecond,
		// Threshold in bytes.
		Threshold:  6144,
		Seed:       1,
		SchemeSeed: 3,
		Workload:   &WorkloadSpec{Name: "WebServer"},
		SchemeWorkload: &WorkloadSpec{Name: "custom", Points: [][2]float64{
			{100, 0}, {5e3, 0.5}, {1e6, 1},
		}},
		CoreLoad: 0.4,
		Budget:   24 << 20,
		MinFlows: 100,
		MaxFlows: 2000,
		Incast: &IncastSpec{
			Fanin: 5, Receiver: 0, MsgSize: 50_000, Seed: 3,
			StartAt: 10 * sim.Microsecond, Jitter: 2 * sim.Microsecond,
		},
		Buffer:   100 << 10,
		Deadline: sim.Second,
		Impair:   tl,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTextRoundTrip(t *testing.T) {
	s := full(t)
	text := s.Text()
	got, err := Parse("rt", []byte(text))
	if err != nil {
		t.Fatalf("parse rendered text: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("text round trip diverged:\nwant %+v\ngot  %+v", s, got)
	}
	if got.Text() != text {
		t.Fatalf("re-render not identical:\n%q\nvs\n%q", text, got.Text())
	}
	if got.Digest() != s.Digest() {
		t.Fatal("digest changed across text round trip")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := full(t)
	buf, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse("rt.json", buf)
	if err != nil {
		t.Fatalf("parse rendered JSON: %v\n%s", err, buf)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("JSON round trip diverged:\nwant %+v\ngot  %+v", s, got)
	}
	buf2, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf2) != string(buf) {
		t.Fatalf("re-render not identical:\n%s\nvs\n%s", buf, buf2)
	}
	if got.Digest() != s.Digest() {
		t.Fatal("digest changed across JSON round trip")
	}
}

func TestCrossFormDigest(t *testing.T) {
	s := full(t)
	buf, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse("x.json", buf)
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := Parse("x.txt", []byte(s.Text()))
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Digest() != fromText.Digest() {
		t.Fatal("JSON and text forms of the same scenario digest differently")
	}
}

func TestMinimalText(t *testing.T) {
	in := "topo micro\nscheme homa\nincast fanin=16 msg=64000\n"
	s, err := Parse("min", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo != "micro" || s.Scheme != "homa" {
		t.Fatalf("bad parse: %+v", s)
	}
	ic := s.Incast
	if ic == nil || ic.Fanin != 16 || ic.MsgSize != 64000 || ic.Receiver != 0 || ic.StartAt != 0 {
		t.Fatalf("bad incast: %+v", ic)
	}
	// Canonical render of the short form re-parses to the same value.
	again, err := Parse("min2", []byte(s.Text()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, s.Text())
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("short-form round trip diverged: %+v vs %+v", s, again)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n  topo micro # trailing\n\tscheme ndp\nincast fanin=2 msg=1000\n"
	if _, err := Parse("c", []byte(in)); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown directive", "topo micro\nscheme homa\nflows 5\nbogus 1\nworkload name=WebServer\n", "unknown directive"},
		{"duplicate directive", "topo micro\ntopo micro\nscheme homa\nincast fanin=1 msg=1\n", "duplicate topo"},
		{"duplicate opt", "topo micro\nscheme homa\nopt a=1\nopt a=2\nincast fanin=1 msg=1\n", "duplicate opt"},
		{"orphan point", "topo micro\nscheme homa\npoint 1 0\nincast fanin=1 msg=1\n", "outside an inline workload"},
		{"no traffic", "topo micro\nscheme homa\n", "nothing to send"},
		{"workload without budget", "topo micro\nscheme homa\nworkload name=WebServer\n", "flows or budget"},
		{"bad incast key", "topo micro\nscheme homa\nincast fanin=1 msg=1 hosts=4\n", "unknown parameter"},
		{"repeated incast key", "topo micro\nscheme homa\nincast fanin=1 msg=1 fanin=2\n", `repeated parameter "fanin"`},
		{"negative rto", "topo micro\nscheme homa\nrto -5ms\nincast fanin=1 msg=1\n", "negative rto"},
		{"bad scheduler", "topo micro\nscheme homa\nscheduler wheel\nincast fanin=1 msg=1\n", `unknown directive "scheduler"`},
		{"bad impair", "topo micro\nscheme homa\nimpair 0s sw0->* explode\nincast fanin=1 msg=1\n", "impair"},
		{"non-monotone points", "topo micro\nscheme homa\nflows 5\nworkload inline=w\npoint 100 0\npoint 50 1\n", "not monotone"},
		{"json unknown field", `{"topo":"micro","scheme":"homa","warp":9,"incast":{"fanin":1,"msg_bytes":1}}`, "unknown field"},
		{"json trailing", `{"topo":"micro","scheme":"homa","incast":{"fanin":1,"msg_bytes":1}} {}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name, []byte(tc.in))
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestWorkloadResolveBuiltin(t *testing.T) {
	w := &WorkloadSpec{Name: "WebServer"}
	c, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if c != workload.WebServer {
		t.Fatal("built-in by name must resolve to the shared package-level CDF")
	}
	if _, err := (&WorkloadSpec{Name: "NoSuch"}).Resolve(); err == nil {
		t.Fatal("unknown built-in must error")
	}
}

func TestWorkloadFromRoundTrip(t *testing.T) {
	// Built-in: captured by name, resolves back to the same pointer.
	if w := From(workload.CacheFollower); w.Name != "CacheFollower" || len(w.Points) != 0 {
		t.Fatalf("built-in not captured by name: %+v", w)
	}
	// Custom: captured inline, resolves to an equal distribution.
	custom := workload.MustCDF("mine", []workload.Point{
		{Bytes: 100, Prob: 0}, {Bytes: 1e4, Prob: 0.9}, {Bytes: 1e6, Prob: 1}})
	w := From(custom)
	if len(w.Points) != 3 {
		t.Fatalf("custom not captured inline: %+v", w)
	}
	back, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "mine" || back.Mean() != custom.Mean() {
		t.Fatal("inline round trip changed the distribution")
	}
	// A custom CDF that shadows a built-in name still inlines (pointer check).
	shadow := workload.MustCDF("WebServer", []workload.Point{{Bytes: 1, Prob: 0}, {Bytes: 2, Prob: 1}})
	if w := From(shadow); len(w.Points) != 2 {
		t.Fatalf("shadowing CDF must inline, got %+v", w)
	}
}

func TestDigestSensitivity(t *testing.T) {
	a := full(t)
	b := full(t)
	if a.Digest() != b.Digest() {
		t.Fatal("equal scenarios must digest equally")
	}
	b.Buffer++
	if a.Digest() == b.Digest() {
		t.Fatal("digest must change when a field changes")
	}
}

func TestValidateNormalizes(t *testing.T) {
	s := &Scenario{
		Topo: "micro", Scheme: "homa",
		Opts:   map[string]string{},
		Incast: &IncastSpec{Fanin: 1, MsgSize: 1},
		Impair: &netem.Timeline{},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Opts != nil || s.Impair != nil {
		t.Fatalf("empty opts/timeline must normalize to nil: %+v", s)
	}
}

// FuzzScenarioRoundTrip checks the canonical-form identity on both
// interchange forms: any input that parses must re-render to a string that
// parses to the same value, renders identically, and digests identically —
// across text and JSON.
func FuzzScenarioRoundTrip(f *testing.F) {
	s := &Scenario{
		Name: "seed", Topo: "micro", Scheme: "xpass+aeolus",
		Opts: map[string]string{"retrylimit": "4"},
		RTO:  10 * sim.Millisecond, Seed: 1, SchemeSeed: 3,
		Workload: &WorkloadSpec{Name: "WebServer"},
		CoreLoad: 0.4, Budget: 24 << 20, MinFlows: 100, MaxFlows: 2000,
		Incast:   &IncastSpec{Fanin: 5, MsgSize: 50_000, Seed: 3, StartAt: 10 * sim.Microsecond},
		Buffer:   100 << 10,
		Deadline: sim.Second,
	}
	if err := s.Validate(); err != nil {
		f.Fatal(err)
	}
	f.Add(s.Text())
	if buf, err := s.JSON(); err == nil {
		f.Add(string(buf))
	}
	f.Add("topo micro\nscheme homa\nincast fanin=16 msg=64000\n")
	f.Add("topo micro\nscheme ndp\nflows 7\nworkload inline=w\npoint 100 0\npoint 1e6 1\nimpair 0s sw0->* loss rate=0.01 nth=0 match=all\n")
	f.Add(`{"topo":"micro","scheme":"homa","incast":{"fanin":3,"msg_bytes":1000}}`)
	f.Fuzz(func(t *testing.T, in string) {
		s1, err := Parse("fuzz", []byte(in))
		if err != nil {
			return // invalid inputs are fine; only canonical identity matters
		}
		// Text form.
		text := s1.Text()
		s2, err := Parse("fuzz-text", []byte(text))
		if err != nil {
			t.Fatalf("canonical text does not re-parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("text round trip diverged\nin: %q\nwant %+v\ngot  %+v", in, s1, s2)
		}
		if s2.Text() != text {
			t.Fatalf("text render unstable:\n%q\nvs\n%q", text, s2.Text())
		}
		// JSON form.
		buf, err := s1.JSON()
		if err != nil {
			t.Fatalf("canonical JSON render failed: %v", err)
		}
		s3, err := Parse("fuzz-json", buf)
		if err != nil {
			t.Fatalf("canonical JSON does not re-parse: %v\n%s", err, buf)
		}
		if !reflect.DeepEqual(s1, s3) {
			t.Fatalf("JSON round trip diverged\nwant %+v\ngot  %+v", s1, s3)
		}
		if s3.Digest() != s1.Digest() {
			t.Fatal("digest not stable across JSON round trip")
		}
	})
}
