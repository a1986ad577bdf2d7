// Package scenario defines the serializable run specification: one data
// value that fully determines a simulation run — topology, scheme and its
// options, workload, load, flow budget, incast, buffer, deadline, seeds, and
// an optional embedded impairment timeline. A scenario is
// what the per-figure experiment generators declare, what the CLIs dump and
// replay, and what the golden-digest machinery keys run identity on: two
// runs with equal scenario digests and equal code are byte-identical.
//
// Two interchange forms exist, both canonical (parse → render → parse is the
// identity, held by FuzzScenarioRoundTrip):
//
// JSON — an object with the field names of Scenario's struct tags; unknown
// fields are hard errors. The impairment timeline embeds as the bare step
// array of internal/netem.
//
// Text — one directive per line, '#' starts a comment:
//
//	# aeolus scenario
//	name golden-xpass
//	topo micro
//	scheme xpass+aeolus
//	opt retrylimit=4
//	rto 10ms
//	threshold 6144
//	seed 1
//	scheme-seed 3
//	workload name=WebServer        (or file=path, or inline=<label> + point lines)
//	point 100 0                    (inline CDF points, "<bytes> <prob>")
//	scheme-workload name=WebServer (workload for scheme defaults, when distinct)
//	load 0.4
//	flows 2000
//	budget 25165824
//	min-flows 100
//	max-flows 2000
//	buffer 102400
//	deadline 1s
//	incast fanin=5 receiver=0 msg=50000 seed=3 start=10us jitter=0ps
//	impair 0s sw0->* loss rate=0.01 nth=0 match=all
//
// Directives render in exactly that order; repeatable ones are opt (sorted
// by key), point (attached to the preceding workload directive) and impair
// (the timeline grammar of internal/netem/timeline.go, one step per line).
//
// This package validates structure only — field shapes, workload CDF
// monotonicity, timeline step forms. Semantic validation (does the topology
// exist, does the scheme build, can the traffic generators serve the fabric,
// do impairment targets match ports) lives in
// internal/experiments.CheckScenario, which reuses ResolveTopo, MakeScheme
// and CheckRun so a scenario error reads exactly like the CLI flag error it
// replaces.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// digestVersion prefixes the digest input, so a format change that re-renders
// old scenarios differently also re-keys every digest loudly.
const digestVersion = "aeolus-scenario-v1"

// Scenario is the complete serializable description of one simulation run.
// The zero value of every optional field means "paper/scheme default", same
// as the CLI flags it mirrors.
type Scenario struct {
	// Name is an optional label (no whitespace); it participates in the
	// digest, so two otherwise-equal scenarios with different names are
	// different cache keys.
	Name string `json:"name,omitempty"`

	// Topo is a topology catalogue name or a "clos:" spec
	// (netem.ParseTopoSpec grammar).
	Topo string `json:"topo"`

	// Scheme is the scheme catalogue ID, with optional -opt key=values.
	Scheme string            `json:"scheme"`
	Opts   map[string]string `json:"opts,omitempty"`

	// RTO overrides the scheme's retransmission timeout; 0 keeps the paper
	// default. Threshold is the selective-dropping threshold in bytes.
	RTO       sim.Duration `json:"rto_ps,omitempty"`
	Threshold int64        `json:"threshold_bytes,omitempty"`

	// Seed is the run seed (experiments.Config.Seed); SchemeSeed is the
	// per-spec seed (SchemeSpec.Seed). Workload and impairment randomness
	// derive from Seed ^ SchemeSeed, exactly as the flag-driven path.
	Seed       uint64 `json:"seed,omitempty"`
	SchemeSeed uint64 `json:"scheme_seed,omitempty"`

	// Workload drives the open-loop Poisson traffic; nil means incast-only.
	// SchemeWorkload, when set, parameterizes workload-derived scheme
	// defaults (Homa's unscheduled priority cutoffs) separately from the
	// traffic — the incast-only studies still want production cutoffs. Nil
	// means "same as Workload".
	Workload       *WorkloadSpec `json:"workload,omitempty"`
	SchemeWorkload *WorkloadSpec `json:"scheme_workload,omitempty"`

	// CoreLoad is the target core load of the Poisson workload; Flows pins
	// the flow count, or 0 derives it from Budget (bytes of offered
	// traffic) clamped to [MinFlows, MaxFlows].
	CoreLoad float64 `json:"core_load,omitempty"`
	Flows    int     `json:"flows,omitempty"`
	Budget   int64   `json:"budget_bytes,omitempty"`
	MinFlows int     `json:"min_flows,omitempty"`
	MaxFlows int     `json:"max_flows,omitempty"`

	// Incast adds a synchronized N-to-1 burst.
	Incast *IncastSpec `json:"incast,omitempty"`

	// Buffer is the per-port buffer in bytes; 0 keeps the 200 KB default.
	Buffer int64 `json:"buffer_bytes,omitempty"`

	// Deadline is the extra simulated time after the last arrival; 0 keeps
	// the 500 ms default.
	Deadline sim.Duration `json:"deadline_ps,omitempty"`

	// Impair embeds a scripted link-impairment timeline.
	Impair *netem.Timeline `json:"impair,omitempty"`
}

// WorkloadSpec names a flow-size distribution: a built-in by name, an
// external CDF file by path, or inline points (the self-contained form
// -dump-scenario emits). Name may accompany Points as the label of an inline
// distribution; File and Points are mutually exclusive.
type WorkloadSpec struct {
	Name   string       `json:"name,omitempty"`
	File   string       `json:"file,omitempty"`
	Points [][2]float64 `json:"points,omitempty"` // [bytes, cumulative probability]
}

// IncastSpec mirrors workload.IncastConfig minus the fields the harness
// derives at run time (host count, flow-ID base).
type IncastSpec struct {
	Fanin    int          `json:"fanin"`
	Receiver int          `json:"receiver,omitempty"`
	MsgSize  int64        `json:"msg_bytes"`
	Seed     uint64       `json:"seed,omitempty"`
	StartAt  sim.Duration `json:"start_ps,omitempty"` // offset from run start
	Jitter   sim.Duration `json:"jitter_ps,omitempty"`
}

// token reports whether s is safe to embed in both interchange forms:
// nonempty valid UTF-8 (JSON replaces invalid bytes with U+FFFD, which would
// break cross-form identity) with no whitespace of any kind (the text
// grammar splits on unicode.IsSpace) and no comment character. Both parsers
// funnel through Validate, so every field a renderer writes re-tokenizes.
func token(s string) bool {
	if s == "" || !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if unicode.IsSpace(r) || r == '#' {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks structure and normalizes the scenario to canonical form
// (empty maps and step lists become nil). It does not resolve names against
// the topology or scheme catalogues — see experiments.CheckScenario.
func (s *Scenario) Validate() error {
	if s.Name != "" && !token(s.Name) {
		return fmt.Errorf("scenario: name %q contains whitespace or '#'", s.Name)
	}
	if !token(s.Topo) {
		return fmt.Errorf("scenario: missing or malformed topo %q", s.Topo)
	}
	if !token(s.Scheme) {
		return fmt.Errorf("scenario: missing or malformed scheme %q", s.Scheme)
	}
	if len(s.Opts) == 0 {
		s.Opts = nil
	}
	for k, v := range s.Opts {
		if !token(k) || strings.Contains(k, "=") {
			return fmt.Errorf("scenario: malformed opt key %q", k)
		}
		if v != "" && !token(v) {
			return fmt.Errorf("scenario: opt %s has malformed value %q", k, v)
		}
	}
	if s.RTO < 0 {
		return fmt.Errorf("scenario: negative rto %s", s.RTO.ExactString())
	}
	if s.Threshold < 0 {
		return fmt.Errorf("scenario: negative threshold %d", s.Threshold)
	}
	if err := s.Workload.validate("workload"); err != nil {
		return err
	}
	if err := s.SchemeWorkload.validate("scheme-workload"); err != nil {
		return err
	}
	if !finite(s.CoreLoad) || s.CoreLoad < 0 {
		return fmt.Errorf("scenario: core load %v must be a non-negative finite number", s.CoreLoad)
	}
	if s.Flows < 0 || s.Budget < 0 || s.MinFlows < 0 || s.MaxFlows < 0 {
		return fmt.Errorf("scenario: negative flow budget (flows=%d budget=%d min=%d max=%d)",
			s.Flows, s.Budget, s.MinFlows, s.MaxFlows)
	}
	if s.Workload == nil && s.Incast == nil {
		return fmt.Errorf("scenario: nothing to send — give a workload and/or an incast")
	}
	if s.Workload != nil && s.Flows == 0 && s.Budget == 0 {
		return fmt.Errorf("scenario: workload needs flows or budget to size the trace")
	}
	if ic := s.Incast; ic != nil {
		switch {
		case ic.Fanin <= 0:
			return fmt.Errorf("scenario: incast fanin %d must be positive", ic.Fanin)
		case ic.MsgSize <= 0:
			return fmt.Errorf("scenario: incast msg size %d must be positive", ic.MsgSize)
		case ic.Receiver < 0:
			return fmt.Errorf("scenario: negative incast receiver %d", ic.Receiver)
		case ic.StartAt < 0 || ic.Jitter < 0:
			return fmt.Errorf("scenario: negative incast start/jitter")
		}
	}
	if s.Buffer < 0 {
		return fmt.Errorf("scenario: negative buffer %d", s.Buffer)
	}
	if s.Deadline < 0 {
		return fmt.Errorf("scenario: negative deadline %s", s.Deadline.ExactString())
	}
	if s.Impair != nil && len(s.Impair.Steps) == 0 {
		s.Impair = nil
	}
	return nil
}

// validate checks one workload reference; nil is valid (absent).
func (w *WorkloadSpec) validate(what string) error {
	if w == nil {
		return nil
	}
	switch {
	case w.File != "" && len(w.Points) > 0:
		return fmt.Errorf("scenario: %s gives both a file and inline points", what)
	case w.File != "" && w.Name != "":
		return fmt.Errorf("scenario: %s gives both a name and a file", what)
	case w.File != "":
		if !token(w.File) {
			return fmt.Errorf("scenario: %s file %q contains whitespace or '#'", what, w.File)
		}
		return nil
	case len(w.Points) > 0:
		if w.Name != "" && !token(w.Name) {
			return fmt.Errorf("scenario: %s name %q contains whitespace or '#'", what, w.Name)
		}
		for _, p := range w.Points {
			if !finite(p[0]) || !finite(p[1]) {
				return fmt.Errorf("scenario: %s has non-finite point (%v, %v)", what, p[0], p[1])
			}
		}
		_, err := w.cdf()
		if err != nil {
			return fmt.Errorf("scenario: %s: %v", what, err)
		}
		return nil
	case w.Name != "":
		if !token(w.Name) {
			return fmt.Errorf("scenario: %s name %q contains whitespace or '#'", what, w.Name)
		}
		return nil
	default:
		return fmt.Errorf("scenario: empty %s spec", what)
	}
}

// cdf builds the inline points into a validated CDF.
func (w *WorkloadSpec) cdf() (*workload.CDF, error) {
	pts := make([]workload.Point, len(w.Points))
	for i, p := range w.Points {
		pts[i] = workload.Point{Bytes: p[0], Prob: p[1]}
	}
	return workload.NewCDF(w.Name, pts)
}

// Resolve turns the reference into a usable distribution: built-ins resolve
// to the shared package-level CDFs (pointer-identical to the flag-driven
// path), files load from disk, inline points build in place.
func (w *WorkloadSpec) Resolve() (*workload.CDF, error) {
	switch {
	case w == nil:
		return nil, nil
	case len(w.Points) > 0:
		return w.cdf()
	case w.File != "":
		return workload.LoadCDF(w.File)
	default:
		c := workload.ByName(w.Name)
		if c == nil {
			return nil, fmt.Errorf("scenario: unknown built-in workload %q (use points or a file for custom distributions)", w.Name)
		}
		return c, nil
	}
}

// From captures an in-memory distribution as a serializable reference: a
// built-in by name (pointer-compared, so a file-loaded CDF that merely
// shares a built-in's name still inlines), anything else as inline points.
func From(c *workload.CDF) *WorkloadSpec {
	if c == nil {
		return nil
	}
	if workload.ByName(c.Name()) == c {
		return &WorkloadSpec{Name: c.Name()}
	}
	pts := c.Points()
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.Bytes, p.Prob}
	}
	return &WorkloadSpec{Name: c.Name(), Points: out}
}

// Inline replaces a file reference with its resolved points, making the
// scenario self-contained (what -dump-scenario emits). Named built-ins stay
// by name; inline and absent workloads are untouched.
func (s *Scenario) Inline() error {
	for _, w := range []**WorkloadSpec{&s.Workload, &s.SchemeWorkload} {
		if *w == nil || (*w).File == "" {
			continue
		}
		c, err := (*w).Resolve()
		if err != nil {
			return err
		}
		*w = From(c)
	}
	return nil
}

// JSON renders the canonical JSON form: two-space indentation, fields in
// struct order, zero-valued optionals omitted. Parse reads it back to an
// equal value.
func (s *Scenario) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// scalars binds the single-value directives to the scenario's fields, in
// render order: one table drives parseText's default arm and Text.
func (s *Scenario) scalars() []kv.Field {
	return []kv.Field{
		{Key: "name", Ptr: &s.Name}, {Key: "topo", Ptr: &s.Topo}, {Key: "scheme", Ptr: &s.Scheme},
		{Key: "rto", Ptr: &s.RTO}, {Key: "threshold", Ptr: &s.Threshold},
		{Key: "seed", Ptr: &s.Seed}, {Key: "scheme-seed", Ptr: &s.SchemeSeed},
		{Key: "load", Ptr: &s.CoreLoad}, {Key: "flows", Ptr: &s.Flows}, {Key: "budget", Ptr: &s.Budget},
		{Key: "min-flows", Ptr: &s.MinFlows}, {Key: "max-flows", Ptr: &s.MaxFlows},
		{Key: "buffer", Ptr: &s.Buffer}, {Key: "deadline", Ptr: &s.Deadline},
	}
}

// params binds the incast directive's key=value parameters to its fields.
func (ic *IncastSpec) params() []kv.Field {
	return []kv.Field{
		{Key: "fanin", Ptr: &ic.Fanin}, {Key: "receiver", Ptr: &ic.Receiver}, {Key: "msg", Ptr: &ic.MsgSize},
		{Key: "seed", Ptr: &ic.Seed}, {Key: "start", Ptr: &ic.StartAt}, {Key: "jitter", Ptr: &ic.Jitter},
	}
}

// fmtFloat renders a float losslessly (shortest form that round-trips).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders the canonical text form: fixed directive order, durations via
// ExactString, floats at full precision — lossless, so
// Parse(name, []byte(s.Text())) reproduces s exactly. A zero scalar is
// omitted, except topo and scheme.
func (s *Scenario) Text() string {
	var b strings.Builder
	b.WriteString("# aeolus scenario\n")
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	writeWorkload := func(directive string, w *WorkloadSpec) {
		if w == nil {
			return
		}
		switch {
		case w.File != "":
			line("%s file=%s", directive, w.File)
		case len(w.Points) > 0:
			line("%s inline=%s", directive, w.Name)
			for _, p := range w.Points {
				line("point %s %s", fmtFloat(p[0]), fmtFloat(p[1]))
			}
		default:
			line("%s name=%s", directive, w.Name)
		}
	}
	for _, f := range s.scalars() {
		if !f.Zero() || f.Key == "topo" || f.Key == "scheme" {
			line("%s %s", f.Key, f.String())
		}
		// The other directives render after the scalar they follow.
		switch f.Key {
		case "scheme":
			for _, k := range slices.Sorted(maps.Keys(s.Opts)) {
				line("opt %s=%s", k, s.Opts[k])
			}
		case "scheme-seed":
			writeWorkload("workload", s.Workload)
			writeWorkload("scheme-workload", s.SchemeWorkload)
		case "max-flows":
			if ic := s.Incast; ic != nil {
				b.WriteString("incast")
				for _, p := range ic.params() {
					fmt.Fprintf(&b, " %s=%s", p.Key, p.String())
				}
				b.WriteByte('\n')
			}
		}
	}
	if s.Impair != nil {
		for _, st := range s.Impair.Steps {
			line("impair %s", st.Text())
		}
	}
	return b.String()
}

// Digest returns the scenario's content digest: hex SHA-256 over the
// version-prefixed canonical text. It is the canonical run-identity key —
// the golden ledger records it next to each behavior digest, and a result
// cache would key on (Digest, code version).
func (s *Scenario) Digest() string {
	h := sha256.New()
	h.Write([]byte(digestVersion))
	h.Write([]byte{'\n'})
	h.Write([]byte(s.Text()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Parse reads either interchange form — JSON when the input starts with '{',
// the directive text otherwise — validates it, and returns the normalized
// scenario. name labels errors (a file name or "-scenario").
func Parse(name string, data []byte) (*Scenario, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		return parseJSON(name, trimmed)
	}
	return parseText(name, data)
}

// Load reads a scenario file in either form.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

func parseJSON(name string, data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	if _, err := dec.Token(); err == nil {
		return nil, fmt.Errorf("%s: trailing data after scenario object", name)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	return &s, nil
}

// parseWorkloadRef parses the single key=value argument of a workload
// directive: name=, file= or inline= (inline labels a following point list).
func parseWorkloadRef(arg string) (*WorkloadSpec, bool, error) {
	key, val, ok := strings.Cut(arg, "=")
	if !ok {
		return nil, false, fmt.Errorf("want name=, file= or inline=, got %q", arg)
	}
	switch key {
	case "name":
		return &WorkloadSpec{Name: val}, false, nil
	case "file":
		return &WorkloadSpec{File: val}, false, nil
	case "inline":
		return &WorkloadSpec{Name: val}, true, nil
	default:
		return nil, false, fmt.Errorf("want name=, file= or inline=, got %q", arg)
	}
}

func parseText(name string, data []byte) (*Scenario, error) {
	s := &Scenario{}
	scalars := s.scalars()
	seen := map[string]bool{}
	var pointsInto *WorkloadSpec // target of point lines (last inline workload)
	fail := func(lineno int, format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", name, lineno, fmt.Sprintf(format, args...))
	}
	for lineno, raw := range strings.Split(string(data), "\n") {
		lineno++
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		directive, args := fields[0], fields[1:]
		// Repeatable directives (opt, point, impair) skip the once check.
		switch directive {
		case "opt", "point", "impair":
		default:
			if seen[directive] {
				return nil, fail(lineno, "duplicate %s directive", directive)
			}
			seen[directive] = true
		}
		one := func() (string, error) {
			if len(args) != 1 {
				return "", fail(lineno, "%s takes exactly one argument", directive)
			}
			return args[0], nil
		}
		switch directive {
		case "opt":
			a, err := one()
			if err != nil {
				return nil, err
			}
			k, v, ok := strings.Cut(a, "=")
			if !ok || k == "" {
				return nil, fail(lineno, "opt wants key=value, got %q", a)
			}
			if s.Opts == nil {
				s.Opts = map[string]string{}
			}
			if _, dup := s.Opts[k]; dup {
				return nil, fail(lineno, "duplicate opt key %q", k)
			}
			s.Opts[k] = v
		case "workload", "scheme-workload":
			a, err := one()
			if err != nil {
				return nil, err
			}
			w, inline, err := parseWorkloadRef(a)
			if err != nil {
				return nil, fail(lineno, "%s: %v", directive, err)
			}
			if directive == "workload" {
				s.Workload = w
			} else {
				s.SchemeWorkload = w
			}
			pointsInto = nil
			if inline {
				pointsInto = w
			}
		case "point":
			if pointsInto == nil {
				return nil, fail(lineno, "point outside an inline workload block")
			}
			if len(args) != 2 {
				return nil, fail(lineno, "point wants \"<bytes> <prob>\"")
			}
			bv, e1 := strconv.ParseFloat(args[0], 64)
			pv, e2 := strconv.ParseFloat(args[1], 64)
			if e1 != nil || e2 != nil {
				return nil, fail(lineno, "point wants two numbers, got %q %q", args[0], args[1])
			}
			pointsInto.Points = append(pointsInto.Points, [2]float64{bv, pv})
		case "incast":
			ic := &IncastSpec{}
			if err := kv.Parse(args, ic.params()); err != nil {
				return nil, fail(lineno, "incast: %v", err)
			}
			s.Incast = ic
		case "impair":
			tl, err := netem.ParseTimeline("impair", []byte(strings.Join(args, " ")))
			if err != nil {
				return nil, fail(lineno, "%v", err)
			}
			if len(tl.Steps) != 1 {
				return nil, fail(lineno, "impair wants exactly one timeline step per line")
			}
			if s.Impair == nil {
				s.Impair = &netem.Timeline{}
			}
			s.Impair.Steps = append(s.Impair.Steps, tl.Steps[0])
		default:
			f, err := kv.Lookup(scalars, directive)
			if err != nil {
				return nil, fail(lineno, "unknown directive %q", directive)
			}
			a, err := one()
			if err != nil {
				return nil, err
			}
			if err := f.Set(a); err != nil {
				return nil, fail(lineno, "%s: %v", directive, err)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	return s, nil
}
