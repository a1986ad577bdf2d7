package expresspass

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scheme"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// Catalogue registration: the ExpressPass family and its paper variants.
// Importing this package (the experiments harness does) makes the schemes
// available to scheme.Build; nothing outside this file knows the IDs.

func init() {
	family := scheme.Family[Options]{
		Base: "xpass",
		MSS:  netem.MaxPayload,
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
			Summary: "ExpressPass (waits for credits in the first RTT)",
			Name:    func(Options) string { return "ExpressPass" },
		},
		scheme.Variant[Options]{
			Suffix:  "+aeolus",
			Summary: "ExpressPass with the Aeolus building block",
			Name:    func(Options) string { return "ExpressPass+Aeolus" },
			Mutate: func(o *Options, spec scheme.Spec) {
				o.Aeolus = core.DefaultOptions()
				o.Aeolus.ThresholdBytes = spec.ThresholdOr(core.DefaultThreshold)
			},
		},
		scheme.Variant[Options]{
			Suffix:  "+oracle",
			Summary: "hypothetical ExpressPass (idealized pre-credit, §2.3)",
			Name:    func(Options) string { return "ExpressPass+IdealPreCredit" },
			Mutate: func(o *Options, spec scheme.Spec) {
				o.Aeolus = core.DefaultOptions()
			},
			Queue: func(o Options, buffer int64) netem.QueueFactory {
				// Idealized pre-credit: scheduled-first data queues that
				// never drop scheduled packets.
				return withCredits(func() *netem.Queue { return netem.NewSchedFirstQueue(0) })
			},
		},
		scheme.Variant[Options]{
			Suffix:  "+prio",
			Summary: "ExpressPass + two shared-buffer priority queues with RTO-only recovery (§5.5; set RTO to 10ms or 20µs)",
			Name: func(o Options) string {
				return fmt.Sprintf("ExpressPass+PrioQueue(RTO=%v)", o.RTO)
			},
			Mutate: func(o *Options, spec scheme.Spec) {
				o.Aeolus = core.DefaultOptions()
				o.RTOOnly = true
			},
			Queue: func(o Options, buffer int64) netem.QueueFactory {
				return withCredits(func() *netem.Queue { return netem.NewSchedFirstQueue(buffer) })
			},
		},
	)
}

// options binds ExpressPass's -opt keys to its options.
func options(o *Options) []kv.Field {
	return []kv.Field{
		{Key: "initrate", Ptr: &o.InitRate}, {Key: "aggressiveness", Ptr: &o.Aggressiveness},
		{Key: "targetloss", Ptr: &o.TargetLoss}, {Key: "probetimeout", Ptr: &o.Aeolus.ProbeTimeout},
		{Key: "maxproberesends", Ptr: &o.Aeolus.MaxProbeResends},
	}
}
