package kv

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// TestRoundTrip renders edge values of every supported type and sets them
// back: Set(String()) must restore each exactly, and the rendering is the
// canonical one the grammars pin.
func TestRoundTrip(t *testing.T) {
	var (
		s   string
		i   int
		i64 int64
		u64 uint64
		f   float64
		b   bool
		d   sim.Duration
		r   sim.Rate
	)
	cases := []struct {
		field Field
		set   func() // stores the edge value
		want  string // its canonical rendering
	}{
		{Field{"s", &s}, func() { s = "" }, ""},
		{Field{"s", &s}, func() { s = "sw0->*" }, "sw0->*"},
		{Field{"i", &i}, func() { i = 0 }, "0"},
		{Field{"i", &i}, func() { i = math.MaxInt64 }, "9223372036854775807"},
		{Field{"i", &i}, func() { i = math.MinInt64 }, "-9223372036854775808"},
		{Field{"i64", &i64}, func() { i64 = 0 }, "0"},
		{Field{"i64", &i64}, func() { i64 = math.MaxInt64 }, "9223372036854775807"},
		{Field{"u64", &u64}, func() { u64 = 0 }, "0"},
		{Field{"u64", &u64}, func() { u64 = math.MaxUint64 }, "18446744073709551615"},
		{Field{"f", &f}, func() { f = 0 }, "0"},
		{Field{"f", &f}, func() { f = 1e-300 }, "1e-300"},
		{Field{"f", &f}, func() { f = 0.1 }, "0.1"},
		{Field{"f", &f}, func() { f = math.MaxFloat64 }, "1.7976931348623157e+308"},
		{Field{"b", &b}, func() { b = false }, "false"},
		{Field{"b", &b}, func() { b = true }, "true"},
		{Field{"d", &d}, func() { d = 0 }, "0s"},
		{Field{"d", &d}, func() { d = 2500 }, "2500ps"},
		{Field{"d", &d}, func() { d = 50 * sim.Millisecond }, "50ms"},
		{Field{"d", &d}, func() { d = math.MaxInt64 }, "9223372036854775807ps"},
		{Field{"r", &r}, func() { r = 0 }, "0bps"},
		{Field{"r", &r}, func() { r = 2500 * sim.Mbps }, "2500Mbps"},
		{Field{"r", &r}, func() { r = math.MaxInt64 }, "9223372036854775807bps"},
	}
	for _, c := range cases {
		c.set()
		v := reflect.ValueOf(c.field.Ptr).Elem()
		want := v.Interface()
		got := c.field.String()
		if got != c.want {
			t.Errorf("%s renders %q, want %q", c.field.Key, got, c.want)
		}
		v.SetZero()
		if err := c.field.Set(got); err != nil {
			t.Errorf("%s: Set(%q): %v", c.field.Key, got, err)
			continue
		}
		if v.Interface() != want {
			t.Errorf("%s: Set(%q) holds %v, want %v", c.field.Key, got, v.Interface(), want)
		}
	}
	// The sim units parse to the canonical rendering.
	if err := (Field{"r", &r}).Set("2.5Gbps"); err != nil || r != 2500*sim.Mbps {
		t.Errorf("Set(2.5Gbps) = %v, %v", r, err)
	}
	if err := (Field{"d", &d}).Set("2500"); err != nil || d != 2500 {
		t.Errorf("Set(2500) = %d, %v (a bare duration is picoseconds)", d, err)
	}
}

// TestZero checks the zero test, including that a negative-zero float is
// zero (so renderers that omit zero values omit it too).
func TestZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var s string
	var i int
	var b bool
	var d sim.Duration
	for _, f := range []Field{{"f", &negZero}, {"s", &s}, {"i", &i}, {"b", &b}, {"d", &d}} {
		if !f.Zero() {
			t.Errorf("%s = %s is not zero", f.Key, f.String())
		}
	}
	one, yes := 1.0, true
	for _, f := range []Field{{"f", &one}, {"b", &yes}} {
		if f.Zero() {
			t.Errorf("%s = %s is zero", f.Key, f.String())
		}
	}
}

// TestSetRejects checks that a value a field's type cannot hold is an error
// that leaves the field unchanged.
func TestSetRejects(t *testing.T) {
	i, u, f, b, d, r := 7, uint64(7), 0.5, true, sim.Duration(7), sim.Rate(7)
	for _, c := range []struct {
		field Field
		in    string
	}{
		{Field{"i", &i}, "1.5"},
		{Field{"u", &u}, "-1"},
		{Field{"f", &f}, "half"},
		{Field{"b", &b}, "yes"},
		{Field{"d", &d}, "1m"}, // a Go unit, not a sim one
		{Field{"d", &d}, "-1us"},
		{Field{"r", &r}, "fast"},
	} {
		before := c.field.String()
		if err := c.field.Set(c.in); err == nil {
			t.Errorf("%s: Set(%q) accepted", c.field.Key, c.in)
		}
		if after := c.field.String(); after != before {
			t.Errorf("%s: failed Set(%q) changed %q to %q", c.field.Key, c.in, before, after)
		}
	}
}

// TestParse checks the key=value word parser: it sets the bound fields and
// rejects a word without '=', an unknown key (naming every key it takes) and
// a key given twice.
func TestParse(t *testing.T) {
	var n int
	var rate sim.Rate
	fields := func() []Field { return []Field{{"n", &n}, {"rate", &rate}} }
	if err := Parse([]string{"rate=2.5Gbps", "n=3"}, fields()); err != nil {
		t.Fatal(err)
	}
	if n != 3 || rate != 2500*sim.Mbps {
		t.Fatalf("Parse set n=%d rate=%v", n, rate)
	}
	for _, c := range []struct {
		words []string
		want  string
	}{
		{[]string{"n"}, `parameter "n" is not key=value`},
		{[]string{"warp=9"}, `unknown parameter "warp" (want n, rate)`},
		{[]string{"n=1", "n=2"}, `repeated parameter "n"`},
		{[]string{"n=x"}, `n: bad integer "x"`},
	} {
		err := Parse(c.words, fields())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", c.words, err, c.want)
		}
	}
}
