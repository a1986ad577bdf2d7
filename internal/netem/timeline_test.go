package netem

import (
	"reflect"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// timelineSeeds is the fuzz seed corpus, also run as a plain test so every
// `go test` exercises it (mirrors the scheduler-equivalence corpus).
var timelineSeeds = []string{
	"",
	"# only a comment\n",
	"0s * loss rate=0.01 nth=0 match=all\n",
	"0s * loss rate=0 nth=7 match=data\n50ms sw0->h1 fail\n100ms sw0->h1 restore\n",
	"1ms leaf*->spine* blackhole\n2ms leaf*->spine* restore\n",
	"60ms leaf0->* rate cap=10Gbps\n70ms leaf0->* rate cap=0bps\n",
	"0s h*->* delay add=2us jitter=10us\n",
	"123ps x loss rate=0.5\n",
	"1.5us sw* loss rate=1e-3 match=unsched\n",
	"0s spine*->* ge p=0.001 r=0.1 good=0 bad=1 match=data\n",
	"2ms * ge p=0.05 r=0.5 good=0.001 bad=0.9\n",
	`[{"at_ps":0,"target":"*","action":"ge","p":0.01,"r":0.2,"bad":1}]`,
	`[{"at_ps":50000000000,"target":"sw0->h1","action":"fail"},{"at_ps":100000000000,"target":"sw0->h1","action":"restore"}]`,
	`[{"at_ps":0,"target":"*","action":"loss","rate":0.01}]`,
	`[]`,
	// Malformed inputs: must error, not panic.
	"0s\n",
	"0s * explode\n",
	"-5ms * fail\n",
	"0s * loss rate=1.5\n",
	"0s * loss rate=NaN\n",
	"0s * fail rate=0.5\n",
	"0s * rate cap=-3bps\n",
	"0s * delay add=oops\n",
	"0s * ge p=1.5\n",
	"0s * ge p=0.1 r=0.1 match=explode\n",
	"0s * loss rate=0.1 p=0.5\n",
	"0s * fail good=0.5\n",
	"9e999s * fail\n",
	`[{"at_ps":-1,"target":"*","action":"fail"}]`,
	`[{"target":"*","action":"fail","bogus":1}]`,
	`[{"target":"a b","action":"fail"}]`,
}

// checkRoundTrip asserts the parse → render → parse identity for one
// accepted timeline, through both renderers.
func checkRoundTrip(t *testing.T, tl *Timeline) {
	t.Helper()
	text := tl.Text()
	tl2, err := ParseTimeline("text-round-trip", []byte(text))
	if err != nil {
		t.Fatalf("Text() of accepted timeline failed to reparse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(tl, tl2) {
		t.Fatalf("text round trip changed the timeline:\n%+v\n->\n%+v\nvia\n%s", tl, tl2, text)
	}
	js, err := tl.JSON()
	if err != nil {
		t.Fatalf("JSON() of accepted timeline failed: %v", err)
	}
	tl3, err := ParseTimeline("json-round-trip", js)
	if err != nil {
		t.Fatalf("JSON() of accepted timeline failed to reparse: %v\n%s", err, js)
	}
	if !reflect.DeepEqual(tl, tl3) {
		t.Fatalf("json round trip changed the timeline:\n%+v\n->\n%+v\nvia\n%s", tl, tl3, js)
	}
}

// TestImpairmentTimelineSeeds runs the checked-in fuzz corpus as a plain
// test: every seed either parses and round-trips exactly or errors cleanly.
func TestImpairmentTimelineSeeds(t *testing.T) {
	for i, seed := range timelineSeeds {
		tl, err := ParseTimeline("seed", []byte(seed))
		if err != nil {
			continue
		}
		if tl == nil {
			t.Fatalf("seed %d: nil timeline without error", i)
		}
		checkRoundTrip(t, tl)
	}
}

func TestParseTimelineText(t *testing.T) {
	tl, err := ParseTimeline("t", []byte(
		"# flap with background loss\n"+
			"0s * loss rate=0.01   # throughout\n"+
			"50ms sw0->h1 fail\n"+
			"100ms sw0->h1 restore\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Timeline{Steps: []TimelineStep{
		{At: 0, Target: "*", Action: ActLoss, Rate: 0.01},
		{At: 50 * sim.Millisecond, Target: "sw0->h1", Action: ActFail},
		{At: 100 * sim.Millisecond, Target: "sw0->h1", Action: ActRestore},
	}}
	if !reflect.DeepEqual(tl, want) {
		t.Fatalf("parsed %+v, want %+v", tl, want)
	}
	checkRoundTrip(t, tl)
}

func TestParseTimelineRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of the error
	}{
		{"too few fields", "0s *\n", "want"},
		{"bad at", "xyz * fail\n", "bad duration"},
		{"negative at", "-1ms * fail\n", "negative"},
		{"unknown action", "0s * explode\n", "unknown action"},
		{"rate above one", "0s * loss rate=1.5\n", "[0,1]"},
		{"nan rate", "0s * loss rate=NaN\n", "[0,1]"},
		{"negative nth", "0s * loss nth=-2\n", "negative nth"},
		{"bad match", "0s * loss match=bogus\n", "match class"},
		{"foreign param", "0s * fail rate=0.5\n", "takes no"},
		{"delay on rate", "0s * rate cap=1Gbps add=1us\n", "takes no"},
		{"negative cap", "0s * rate cap=-3bps\n", "negative"},
		{"bad kv", "0s * loss rate\n", "not key=value"},
		{"unknown key", "0s * loss frobnicate=1\n", "unknown parameter"},
		{"repeated key", "0s * loss rate=0.1 rate=0.2\n", `repeated parameter "rate"`},
		{"empty target via json", `[{"at_ps":0,"target":"","action":"fail"}]`, "empty target"},
		{"target with space via json", `[{"at_ps":0,"target":"a b","action":"fail"}]`, "bad character"},
		{"unknown json field", `[{"at_ps":0,"target":"*","action":"fail","bogus":1}]`, "bogus"},
	}
	for _, c := range cases {
		_, err := ParseTimeline(c.name, []byte(c.text))
		if err == nil {
			t.Errorf("%s: accepted malformed input", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "leaf0->spine1", true},
		{"leaf0->*", "leaf0->spine1", true},
		{"leaf0->*", "leaf1->spine1", false},
		{"*->spine1", "leaf0->spine1", true},
		{"leaf*->spine*", "leaf3->spine7", true},
		{"sw0->h1", "sw0->h1", true},
		{"sw0->h1", "sw0->h10", false},
		{"*h1", "sw0->h1", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pattern, c.s); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// TestTimelineApply compiles a flap-plus-loss script onto a real topology and
// checks scheduling, per-port installation and drop attribution end to end.
func TestTimelineApply(t *testing.T) {
	net := BuildClos(sim.NewEngine(), TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	tl, err := ParseTimeline("t", []byte(
		"0s sw0->h1 loss rate=1\n"+
			"10us sw0->h1 loss rate=0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Apply(net, 42); err != nil {
		t.Fatal(err)
	}
	impaired := 0
	for _, pt := range net.AllPorts() {
		if pt.Imp != nil {
			impaired++
		}
	}
	if impaired != 1 {
		t.Fatalf("%d impaired ports, want 1 (only sw0->h1 targeted)", impaired)
	}
	send := func() {
		p := net.Pool.Get()
		p.Type, p.Dst, p.WireSize = Data, 1, 1000
		net.Switches[0].Receive(p)
	}
	net.Eng.At(sim.Time(5*sim.Microsecond), send)  // during rate-1 loss
	net.Eng.At(sim.Time(20*sim.Microsecond), send) // after loss cleared
	net.Eng.Run()
	if got := DropTotals(net.SwitchPorts())[DropImpairment]; got != 1 {
		t.Fatalf("injected drops = %d, want 1", got)
	}
	if h := net.Hosts[1]; h.RxPackets != 1 {
		t.Fatalf("host received %d packets, want 1", h.RxPackets)
	}
	if live := net.Pool.Live(); live != 0 {
		t.Fatalf("%d packets leaked", live)
	}
}

func TestTimelineApplyRejectsUnmatchedTarget(t *testing.T) {
	net := BuildClos(sim.NewEngine(), TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	tl, err := ParseTimeline("t", []byte("0s nosuch->port fail\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Apply(net, 1); err == nil {
		t.Fatal("timeline targeting no port must be rejected")
	}
}

// FuzzImpairmentTimeline feeds arbitrary bytes through both timeline parsers.
// The contract mirrors FuzzCDFParse: malformed input returns an error — never
// a panic — and accepted input survives parse → render → parse in both the
// text and JSON forms with an identical in-memory timeline.
func FuzzImpairmentTimeline(f *testing.F) {
	for _, seed := range timelineSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := ParseTimeline("fuzz", data)
		if err != nil {
			return
		}
		checkRoundTrip(t, tl)
	})
}
