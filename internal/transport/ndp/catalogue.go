package ndp

import (
	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scheme"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// Catalogue registration: the NDP family and its Aeolus variant.

func init() {
	family := scheme.Family[Options]{
		Base: "ndp",
		MSS:  MSS,
		Defaults: func(spec scheme.Spec) Options {
			opts := DefaultOptions()
			opts.Seed = spec.Seed
			if spec.RTO > 0 {
				opts.RTO = spec.RTO
			}
			return opts
		},
		Options: options,
		Protocol: func(env *transport.Env, o Options) transport.Protocol {
			return New(env, o)
		},
		Queue: QueueFactory,
	}
	family.Register(
		scheme.Variant[Options]{
			Summary: "NDP with switch trimming and per-packet spraying",
			Name:    func(Options) string { return "NDP" },
		},
		scheme.Variant[Options]{
			Suffix:  "+aeolus",
			Summary: "NDP with selective dropping instead of trimming",
			Name:    func(Options) string { return "NDP+Aeolus" },
			Mutate: func(o *Options, spec scheme.Spec) {
				o.Aeolus = core.DefaultOptions()
				// Jumbo frames need a proportionally larger threshold: the
				// paper's 4-packet intuition at NDP's 9 KB MTU.
				o.Aeolus.ThresholdBytes = spec.ThresholdOr(4 * netem.JumboMTU)
			},
		},
	)
}

// options binds NDP's -opt keys to its options.
func options(o *Options) []kv.Field {
	return []kv.Field{
		{Key: "trimpkts", Ptr: &o.TrimThresholdPkts}, {Key: "spray", Ptr: &o.Spray},
		{Key: "probetimeout", Ptr: &o.Aeolus.ProbeTimeout},
	}
}
