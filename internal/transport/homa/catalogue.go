package homa

import (
	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/kv"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scheme"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// Catalogue registration: the Homa family and its paper variants.

func init() {
	family := scheme.Family[Options]{
		Base: "homa",
		MSS:  netem.MaxPayload,
		Defaults: func(spec scheme.Spec) Options {
			opts := DefaultOptions()
			opts.Workload = spec.Workload
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
			Summary: "Homa over 8 priority queues (RTO 10ms default)",
			Name:    func(Options) string { return "Homa" },
		},
		scheme.Variant[Options]{
			Suffix:  "+aeolus",
			Summary: "Homa with Aeolus (single selective-dropping queue)",
			Name:    func(Options) string { return "Homa+Aeolus" },
			Mutate: func(o *Options, spec scheme.Spec) {
				o.Aeolus = core.DefaultOptions()
				o.Aeolus.ThresholdBytes = spec.ThresholdOr(core.DefaultThreshold)
			},
		},
		scheme.Variant[Options]{
			Suffix:  "+oracle",
			Summary: "hypothetical Homa (no unscheduled interference, §2.3)",
			Name:    func(Options) string { return "Homa+IdealFirstRTT" },
			Queue: func(o Options, buffer int64) netem.QueueFactory {
				// The hypothetical Homa of §2.3: scheduled packets are never
				// queued or dropped for lack of buffer. Homa's own priority
				// structure with unbounded buffers realizes it — exactly the
				// infinite-buffer assumption the paper notes in Homa's own
				// simulator (§5.5).
				return QueueFactory(o, 0)
			},
		},
		scheme.Variant[Options]{
			Suffix:  "-eager",
			Summary: "Homa with an aggressive 20µs RTO (Table 1)",
			Name:    func(Options) string { return "EagerHoma" },
			Mutate: func(o *Options, spec scheme.Spec) {
				o.RTO = 20 * sim.Microsecond
				if spec.RTO > 0 {
					o.RTO = spec.RTO
				}
			},
		},
	)
}

// options binds Homa's -opt keys to its options.
func options(o *Options) []kv.Field {
	return []kv.Field{
		{Key: "overcommit", Ptr: &o.Overcommit}, {Key: "numprios", Ptr: &o.NumPrios},
		{Key: "unschedprios", Ptr: &o.UnschedPrios}, {Key: "rttbytes", Ptr: &o.RTTBytes},
		{Key: "spray", Ptr: &o.Spray}, {Key: "probetimeout", Ptr: &o.Aeolus.ProbeTimeout},
	}
}
