// Package scheme is the model the transport catalogues are declared in.
//
// A scheme is one transport configuration under test — "xpass+aeolus",
// "homa-eager" — pairing a fabric discipline with a protocol constructor.
// Each transport package declares its schemes in a catalogue.go that returns
// them as a []Entry: a Family describes the base transport (default options,
// fabric, constructor) and each Variant decorates it with an options mutator
// and/or its own queue factory. Nothing in this package knows any transport
// by name; adding a variant is one more Variant value, not a switch arm.
//
// The experiments package concatenates the transports' lists into the one
// catalogue, resolves scheme IDs against it and prints it.
package scheme

import (
	"fmt"
	"maps"
	"slices"

	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Spec selects and parameterizes a scheme by ID.
type Spec struct {
	ID        string        // a catalogue entry's ID
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

// Family describes a base transport for its catalogue: its default options,
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

	// Options binds the -opt keys to fields of o: the option table an
	// entry's Build sets user options through. Nil disables option
	// pass-through.
	Options func(o *O) []kv.Field

	// Protocol constructs the transport over the final options.
	Protocol func(env *transport.Env, o O) transport.Protocol

	// Queue is the family's base fabric discipline.
	Queue func(o O, buffer int64) netem.QueueFactory
}

// Variant decorates a Family: the scheme ID is Base+Suffix, the
// options are Defaults → Mutate → Options, and the fabric is either the
// family's base Queue or the variant's override. This is the composition
// that replaces per-variant switch arms.
type Variant[O any] struct {
	Suffix  string // "" is the base scheme itself
	Summary string

	// Name renders the display name from the final options (names may
	// embed parameters, e.g. the RTO of the priority-queueing baseline).
	Name func(o O) string

	// Mutate is the variant's options decorator; nil keeps the defaults.
	Mutate func(o *O, spec Spec)

	// Queue overrides the family fabric; nil keeps Family.Queue.
	Queue func(o O, buffer int64) netem.QueueFactory
}

// Entries returns one catalogue entry per variant, in order, each composing
// the family defaults with the variant's decorators.
func (f Family[O]) Entries(variants ...Variant[O]) []Entry {
	entries := make([]Entry, len(variants))
	for i, v := range variants {
		entries[i] = Entry{
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
		}
	}
	return entries
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
