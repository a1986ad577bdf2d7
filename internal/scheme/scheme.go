// Package scheme is the self-registering catalogue of transport schemes.
//
// A scheme is one transport configuration under test — "xpass+aeolus",
// "homa-eager" — pairing a fabric discipline with a protocol constructor.
// Transport packages register their schemes from init: a Family describes
// the base transport (default options, fabric, constructor) and each Variant
// decorates it with an options mutator and/or its own queue factory.
// Nothing in this package knows any transport by name; adding a transport or
// a variant is a registration, not a switch arm.
//
// Consumers resolve schemes with Build, enumerate them with Entries/IDs, and
// print the catalogue with Catalog. The experiments harness and both CLIs
// sit on top of exactly that surface.
package scheme

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Spec selects and parameterizes a scheme by ID.
type Spec struct {
	ID        string        // see Entries() for the catalogue
	Workload  *workload.CDF // Homa unscheduled priority cutoffs
	RTO       sim.Duration  // 0 keeps the scheme's paper default
	Threshold int64         // selective dropping threshold; 0 = paper default
	Seed      uint64

	// Opts carries generic -opt key=value pass-through options, applied to
	// the scheme's typed option struct after the variant mutator runs (so an
	// explicit option overrides a variant default). Keys are applied in
	// sorted order; unknown keys are a Build error listing the valid set.
	Opts map[string]string
}

// ThresholdOr returns the spec's selective-dropping threshold, or def when
// the spec leaves it at the paper default.
func (s Spec) ThresholdOr(def int64) int64 {
	if s.Threshold > 0 {
		return s.Threshold
	}
	return def
}

// Scheme is a buildable transport configuration: a display name, the fabric
// discipline it programs, the MSS it uses, and its protocol constructor.
type Scheme struct {
	Name    string
	MSS     int
	Factory func(buffer int64) netem.QueueFactory
	New     func(env *transport.Env) transport.Protocol
}

// Entry is one catalogue row: a scheme ID, its one-line summary, and the
// builder resolving a Spec into a Scheme.
type Entry struct {
	ID      string
	Summary string
	Build   func(Spec) (Scheme, error)
}

var (
	registry = map[string]Entry{}
	order    []string // registration order, for catalogue printing
)

// Register adds an entry to the catalogue. It panics on empty or duplicate
// IDs and nil builders: registration runs from transport-package init, so a
// malformed catalogue is a programming error, not a runtime condition.
func Register(e Entry) {
	switch {
	case e.ID == "":
		panic("scheme: Register with empty ID")
	case e.Build == nil:
		panic("scheme: Register " + e.ID + " with nil builder")
	}
	if _, dup := registry[e.ID]; dup {
		panic("scheme: duplicate registration of " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Build resolves a spec against the registry and builds the scheme. An
// unknown ID returns an error carrying the full catalogue, so callers can
// surface it to users verbatim.
func Build(spec Spec) (Scheme, error) {
	e, ok := registry[spec.ID]
	if !ok {
		return Scheme{}, fmt.Errorf("unknown scheme %q; available schemes:\n%s", spec.ID, Catalog())
	}
	return e.Build(spec)
}

// Lookup returns the catalogue entry for an ID.
func Lookup(id string) (Entry, bool) {
	e, ok := registry[id]
	return e, ok
}

// Entries returns the catalogue in registration order (transport packages
// initialize in import-path order, so the listing is stable).
func Entries() []Entry {
	out := make([]Entry, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns every catalogued scheme ID, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Catalog renders the catalogue as an aligned two-column listing.
func Catalog() string {
	var sb strings.Builder
	for _, e := range Entries() {
		fmt.Fprintf(&sb, "  %-14s %s\n", e.ID, e.Summary)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Family describes a base transport for registration: its default options,
// fabric discipline and protocol constructor, parameterized by the typed
// options struct O of the transport package.
type Family[O any] struct {
	// Base is the base scheme ID, e.g. "xpass".
	Base string

	// MSS is the payload size every scheme of the family uses.
	MSS int

	// Defaults derives the base options from a spec (seed, RTO override,
	// workload — everything shared by all variants).
	Defaults func(spec Spec) O

	// Options binds the -opt keys to fields of o: the option table Build
	// sets user options through. Nil disables option pass-through.
	Options func(o *O) []kv.Field

	// Protocol constructs the transport over the final options.
	Protocol func(env *transport.Env, o O) transport.Protocol

	// Queue is the family's base fabric discipline.
	Queue func(o O, buffer int64) netem.QueueFactory
}

// Variant decorates a Family: the registered scheme ID is Base+Suffix, the
// options are Defaults → Mutate → Options, and the fabric is either the
// family's base Queue or the variant's override. This is the composition
// that replaces per-variant switch arms.
type Variant[O any] struct {
	Suffix  string // "" registers the base scheme itself
	Summary string

	// Name renders the display name from the final options (names may
	// embed parameters, e.g. the RTO of the priority-queueing baseline).
	Name func(o O) string

	// Mutate is the variant's options decorator; nil keeps the defaults.
	Mutate func(o *O, spec Spec)

	// Queue overrides the family fabric; nil keeps Family.Queue.
	Queue func(o O, buffer int64) netem.QueueFactory
}

// Register registers every variant of the family, each as one catalogue
// entry composing the family defaults with the variant's decorators.
func (f Family[O]) Register(variants ...Variant[O]) {
	for _, v := range variants {
		v := v
		Register(Entry{
			ID:      f.Base + v.Suffix,
			Summary: v.Summary,
			Build: func(spec Spec) (Scheme, error) {
				o := f.Defaults(spec)
				if v.Mutate != nil {
					v.Mutate(&o, spec)
				}
				if err := applyOpts(&o, spec, f.Options); err != nil {
					return Scheme{}, fmt.Errorf("scheme %s: %w", f.Base+v.Suffix, err)
				}
				qf := f.Queue
				if v.Queue != nil {
					qf = v.Queue
				}
				return Scheme{
					Name: v.Name(o),
					MSS:  f.MSS,
					Factory: func(buffer int64) netem.QueueFactory {
						return qf(o, buffer)
					},
					New: func(env *transport.Env) transport.Protocol {
						return f.Protocol(env, o)
					},
				}, nil
			},
		})
	}
}

// applyOpts sets the generic key=value options through the family's option
// table, in sorted key order. An unknown key is an error listing the table.
func applyOpts[O any](o *O, spec Spec, options func(*O) []kv.Field) error {
	if len(spec.Opts) == 0 {
		return nil
	}
	if options == nil {
		return fmt.Errorf("scheme takes no -opt options")
	}
	fields := options(o)
	for _, k := range slices.Sorted(maps.Keys(spec.Opts)) {
		f, err := kv.Lookup(fields, k)
		if err == nil {
			err = f.Set(spec.Opts[k])
		}
		if err != nil {
			return fmt.Errorf("option %s: %v", k, err)
		}
	}
	return nil
}
