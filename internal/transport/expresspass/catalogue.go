package expresspass

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/core"
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
		Apply: applyOpt,
		Protocol: func(env *transport.Env, o Options) transport.Protocol {
			return New(env, o)
		},
		Qdisc: func(o Options, buffer int64) netem.QdiscFactory {
			return QdiscFactory(o, buffer)
		},
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
			Qdisc: func(o Options, buffer int64) netem.QdiscFactory {
				// Idealized pre-credit: scheduled-first data queues that
				// never drop scheduled packets.
				return wrapData(func() netem.Qdisc { return netem.NewSchedFirstQueue(0) })
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
			Qdisc: func(o Options, buffer int64) netem.QdiscFactory {
				return wrapData(func() netem.Qdisc { return netem.NewSchedFirstQueue(buffer) })
			},
		},
	)
}

// applyOpt maps generic -opt keys onto the typed options.
func applyOpt(o *Options, key, val string) error {
	var err error
	switch key {
	case "initrate":
		o.InitRate, err = scheme.OptFloat(key, val)
	case "aggressiveness":
		o.Aggressiveness, err = scheme.OptFloat(key, val)
	case "targetloss":
		o.TargetLoss, err = scheme.OptFloat(key, val)
	case "probetimeout":
		o.Aeolus.ProbeTimeout, err = scheme.OptDuration(key, val)
	case "maxproberesends":
		o.Aeolus.MaxProbeResends, err = scheme.OptInt(key, val)
	default:
		return fmt.Errorf("unknown option %q (ExpressPass takes initrate, aggressiveness, targetloss, probetimeout, maxproberesends)", key)
	}
	return err
}
