package netem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// This file is the scripted side of the impairment layer: a Timeline is a
// serializable list of (at, target, action, params) steps that Apply compiles
// onto a built network — installing a LinkImpairment on every targeted port
// and scheduling each step on the sim engine. The same timeline with the same
// seed reproduces the same chaos bit for bit, which is what makes degraded
// runs diffable across schedulers and schemes (scenario-as-data).
//
// Text format, one step per line ('#' starts a comment):
//
//	<at> <target> <action> [key=value ...]
//
//	0s    *            loss  rate=0.01 nth=0 match=all
//	0s    spine*->*    ge    p=0.001 r=0.1 good=0 bad=1 match=data
//	50ms  sw0->h1      fail
//	100ms sw0->h1      restore
//	60ms  leaf0->*     rate  cap=10Gbps
//	0s    h*->*        delay add=2us jitter=10us
//
// <at> is an offset from run start (sim.ParseDuration); <target> is a glob
// over port labels ('*' matches any run); actions are loss (params rate in
// [0,1], nth ≥ 0 — every-nth deterministic loss when nth > 0 — and match in
// all|data|ctrl|sched|unsched), ge (Gilbert-Elliott correlated loss; params
// p, r, good, bad — all probabilities in [0,1] — and match as for loss),
// fail, restore, blackhole, rate (param cap, 0 restores the original rate)
// and delay (params add, jitter). A parameter given twice is an error.
//
// The JSON form is an array of step objects with the field names below.
// Both renderers are canonical: parse → render → parse is the identity
// (FuzzImpairmentTimeline holds the format to that contract).

// Timeline actions.
const (
	ActLoss      = "loss"
	ActGE        = "ge"
	ActFail      = "fail"
	ActRestore   = "restore"
	ActBlackhole = "blackhole"
	ActRate      = "rate"
	ActDelay     = "delay"
)

// TimelineStep is one scripted impairment event.
type TimelineStep struct {
	At     sim.Duration `json:"at_ps"`  // offset from run start
	Target string       `json:"target"` // glob over port labels
	Action string       `json:"action"`

	Rate   float64      `json:"rate,omitempty"`      // loss: drop probability [0,1]
	Nth    int64        `json:"nth,omitempty"`       // loss: drop every nth match
	Match  string       `json:"match,omitempty"`     // loss/ge: packet class ("" = all)
	P      float64      `json:"p,omitempty"`         // ge: good→bad transition probability
	R      float64      `json:"r,omitempty"`         // ge: bad→good recovery probability
	Good   float64      `json:"good,omitempty"`      // ge: loss probability in the good state
	Bad    float64      `json:"bad,omitempty"`       // ge: loss probability in the bad state
	Cap    sim.Rate     `json:"cap_bps,omitempty"`   // rate: degraded link rate
	Add    sim.Duration `json:"add_ps,omitempty"`    // delay: fixed addition
	Jitter sim.Duration `json:"jitter_ps,omitempty"` // delay: uniform jitter bound
}

// Timeline is a scripted impairment scenario.
type Timeline struct {
	Steps []TimelineStep
}

// MarshalJSON renders the timeline as the bare step array — the same form
// JSON() writes and ParseTimeline reads — so a Timeline embedded in a larger
// document (a scenario file) serializes without a wrapper object.
func (tl *Timeline) MarshalJSON() ([]byte, error) {
	steps := tl.Steps
	if steps == nil {
		steps = []TimelineStep{}
	}
	return json.Marshal(steps)
}

// UnmarshalJSON parses the bare step array, funneling every step through the
// same validation as ParseTimeline: an embedded timeline can never hold a
// step the standalone parsers would reject.
func (tl *Timeline) UnmarshalJSON(data []byte) error {
	parsed, err := parseTimelineJSON("timeline", data)
	if err != nil {
		return err
	}
	tl.Steps = parsed.Steps
	return nil
}

// targetChar reports whether r may appear in a target glob. The whitelist
// covers every label the topology builders emit and keeps targets
// tokenizable (no whitespace, no '#').
func targetChar(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return true
	}
	return strings.ContainsRune("-><.*_:+/", r)
}

// params binds the step's key=value parameters to its fields, the one table
// the text parser, the renderer and the validator share.
func (st *TimelineStep) params() []kv.Field {
	return []kv.Field{
		{Key: "rate", Ptr: &st.Rate}, {Key: "nth", Ptr: &st.Nth}, {Key: "match", Ptr: &st.Match},
		{Key: "p", Ptr: &st.P}, {Key: "r", Ptr: &st.R}, {Key: "good", Ptr: &st.Good}, {Key: "bad", Ptr: &st.Bad},
		{Key: "cap", Ptr: &st.Cap}, {Key: "add", Ptr: &st.Add}, {Key: "jitter", Ptr: &st.Jitter},
	}
}

// actionParams lists, per action, the parameters it takes in render order.
var actionParams = map[string][]string{
	ActLoss:      {"rate", "nth", "match"},
	ActGE:        {"p", "r", "good", "bad", "match"},
	ActFail:      nil,
	ActRestore:   nil,
	ActBlackhole: nil,
	ActRate:      {"cap"},
	ActDelay:     {"add", "jitter"},
}

// validate checks one step and normalizes it to canonical form. Both parsers
// funnel through it, so a Timeline in memory is always renderable and a
// rendered form always re-parses to the same value.
func (st *TimelineStep) validate() error {
	if st.At < 0 {
		return fmt.Errorf("negative at %d", st.At)
	}
	if st.Target == "" {
		return fmt.Errorf("empty target")
	}
	for _, r := range st.Target {
		if !targetChar(r) {
			return fmt.Errorf("bad character %q in target %q", r, st.Target)
		}
	}
	takes, ok := actionParams[st.Action]
	if !ok {
		return fmt.Errorf("unknown action %q (want loss, ge, fail, restore, blackhole, rate or delay)", st.Action)
	}
	// Reject params foreign to the action so every non-zero field is
	// rendered and every rendered field is meaningful. The range checks
	// then hold for every action, as a foreign param is zero.
	for _, f := range st.params() {
		if !f.Zero() && !slices.Contains(takes, f.Key) {
			return fmt.Errorf("action %s takes no %s", st.Action, f.Key)
		}
		// Every float parameter is a probability (NaN fails both bounds).
		if p, ok := f.Ptr.(*float64); ok && !(*p >= 0 && *p <= 1) {
			return fmt.Errorf("%s %s %v outside [0,1]", st.Action, f.Key, *p)
		}
	}
	switch {
	case st.Nth < 0:
		return fmt.Errorf("negative nth %d", st.Nth)
	case st.Cap < 0:
		return fmt.Errorf("negative cap %d", st.Cap)
	case st.Add < 0 || st.Jitter < 0:
		return fmt.Errorf("negative delay add=%d jitter=%d", st.Add, st.Jitter)
	}
	if st.Match == "all" {
		st.Match = "" // canonical
	}
	_, err := MatchClass(st.Match)
	return err
}

// ParseTimeline parses a timeline in either format: JSON when the input
// starts with '[', the line-oriented text format otherwise. name labels
// errors (a file name or "-impair"). Malformed input returns an error, never
// a panic.
func ParseTimeline(name string, data []byte) (*Timeline, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		return parseTimelineJSON(name, trimmed)
	}
	return parseTimelineText(name, data)
}

func parseTimelineJSON(name string, data []byte) (*Timeline, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var steps []TimelineStep
	if err := dec.Decode(&steps); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	if err := ensureEOF(dec); err != nil {
		return nil, fmt.Errorf("%s: trailing data after timeline array", name)
	}
	for i := range steps {
		if err := steps[i].validate(); err != nil {
			return nil, fmt.Errorf("%s: step %d: %v", name, i, err)
		}
	}
	if len(steps) == 0 {
		steps = nil // canonical: empty timeline has nil Steps
	}
	return &Timeline{Steps: steps}, nil
}

func ensureEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err == nil {
		return fmt.Errorf("trailing data")
	}
	return nil
}

func parseTimelineText(name string, data []byte) (*Timeline, error) {
	tl := &Timeline{}
	for lineno, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want \"<at> <target> <action> [key=value ...]\", got %q", name, lineno+1, line)
		}
		at, err := sim.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineno+1, err)
		}
		st := TimelineStep{At: at, Target: fields[1], Action: fields[2]}
		if err := kv.Parse(fields[3:], st.params()); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineno+1, err)
		}
		if err := st.validate(); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineno+1, err)
		}
		tl.Steps = append(tl.Steps, st)
	}
	return tl, nil
}

// Text renders the timeline in canonical text form: every meaningful
// parameter explicit, durations via ExactString, rates via Rate.String —
// all lossless, so ParseTimeline(tl.Text()) reproduces tl exactly.
func (tl *Timeline) Text() string {
	var b strings.Builder
	b.WriteString("# impairment timeline\n")
	for _, st := range tl.Steps {
		b.WriteString(st.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// Text renders one step in the canonical text grammar (no trailing newline):
// the line form Timeline.Text emits and parseTimelineText reads back. Every
// parameter the action takes is explicit; an empty match renders as all.
func (st TimelineStep) Text() string {
	if st.Match == "" {
		st.Match = "all"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", st.At.ExactString(), st.Target, st.Action)
	params := st.params()
	for _, key := range actionParams[st.Action] {
		f, _ := kv.Lookup(params, key) // every row key is in params
		fmt.Fprintf(&b, " %s=%s", key, f.String())
	}
	return b.String()
}

// JSON renders the timeline as an indented JSON array (the alternate
// on-disk form; ParseTimeline reads it back identically).
func (tl *Timeline) JSON() ([]byte, error) {
	steps := tl.Steps
	if steps == nil {
		steps = []TimelineStep{}
	}
	return json.MarshalIndent(steps, "", "  ")
}

// matchGlob matches s against a pattern where '*' matches any (possibly
// empty) run of characters.
func matchGlob(pattern, s string) bool {
	px, sx := 0, 0
	star, mark := -1, 0
	for sx < len(s) {
		switch {
		case px < len(pattern) && (pattern[px] == s[sx]):
			px++
			sx++
		case px < len(pattern) && pattern[px] == '*':
			star, mark = px, sx
			px++
		case star >= 0:
			mark++
			px, sx = star+1, mark
		default:
			return false
		}
	}
	for px < len(pattern) && pattern[px] == '*' {
		px++
	}
	return px == len(pattern)
}

// Apply compiles the timeline onto a built network: every port matched by
// any step gets one LinkImpairment (seeded from seed and the port label, so
// per-port randomness is stable regardless of step order), and each step is
// scheduled on the engine at its offset. A step whose target matches no port
// is an error — a silently inert chaos script would invalidate the
// experiment it was meant to stress.
func (tl *Timeline) Apply(net *Network, seed uint64) error {
	ports := net.AllPorts()
	for i, st := range tl.Steps {
		var targets []*LinkImpairment
		for _, pt := range ports {
			if !matchGlob(st.Target, pt.Label) {
				continue
			}
			if pt.Imp == nil {
				InstallImpairment(pt, seed^labelHash(pt.Label))
			}
			targets = append(targets, pt.Imp)
		}
		if len(targets) == 0 {
			return fmt.Errorf("timeline step %d: target %q matches no port", i, st.Target)
		}
		step := st // capture
		net.Eng.At(sim.Time(st.At), func() {
			for _, li := range targets {
				applyStep(li, step)
			}
		})
	}
	return nil
}

func applyStep(li *LinkImpairment, st TimelineStep) {
	switch st.Action {
	case ActLoss, ActGE:
		m, err := MatchClass(st.Match)
		if err != nil {
			panic(err) // unreachable: validate checked the class
		}
		if st.Action == ActLoss {
			li.SetLoss(st.Rate, st.Nth, m)
		} else {
			li.SetGE(st.P, st.R, st.Good, st.Bad, m)
		}
	case ActFail:
		li.Fail()
	case ActRestore:
		li.Restore()
	case ActBlackhole:
		li.SetBlackhole(true)
	case ActRate:
		li.SetRate(st.Cap)
	case ActDelay:
		li.SetDelay(st.Add, st.Jitter)
	}
}

// labelHash is FNV-1a over the port label: a stable per-port stream selector
// for impairment randomness.
func labelHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// LoadTimeline resolves the CLI impairment knobs shared by the commands: an
// inline timeline (-impair: text-grammar steps separated by ';' or newlines)
// and a timeline file (-impair-file: text or JSON). Giving both is an error;
// giving neither yields a nil timeline (no impairment).
func LoadTimeline(inline, path string) (*Timeline, error) {
	switch {
	case inline != "" && path != "":
		return nil, fmt.Errorf("impairment timeline: give -impair or -impair-file, not both")
	case inline != "":
		return ParseTimeline("-impair", []byte(strings.ReplaceAll(inline, ";", "\n")))
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return ParseTimeline(path, data)
	default:
		return nil, nil
	}
}
