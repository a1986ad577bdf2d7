package bench

import (
	"fmt"
	"slices"
)

// Metric is one reported number: its name, unit and the direction that
// counts as better. Bound, for an end-to-end metric, is the share of the
// baseline median by which the metric may get worse before a change counts
// as a regression; Slack is an absolute allowance added to it, in the
// metric's unit.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Slack  float64
}

// endToEnd pairs an end-to-end metric with the rep value it summarizes.
type endToEnd struct {
	Metric
	of func(*Rep) float64
}

// EndToEnd are the numbers a user of the simulator waits on or pays in
// memory, one value per rep, reported as median and quartiles over the reps.
// Failed output checks are counted beside them (attempted, failed), not as a
// metric, because a metric must never read 0.
//
// The bounds follow the spread of the run medians over ten seeds on a
// shared 2-core host (README.md). The timings need the widest bound because
// the host's speed drifts by tens of percent within minutes; the peaks of
// paper-quick depend on which of its two workers' runs overlap.
var EndToEnd = []endToEnd{
	{Metric{"wall_s", "s", "lower", 0.25, 0}, func(r *Rep) float64 { return r.WallS }},
	// Set-up takes about a millisecond on the scale workloads, so it also
	// gets 10 ms of absolute slack in comparisons.
	{Metric{"setup_s", "s", "lower", 0.25, 0.010}, func(r *Rep) float64 { return r.SetupS }},
	{Metric{"heap_peak_mb", "MiB", "lower", 0.20, 0}, func(r *Rep) float64 { return r.HeapPeakMB }},
	{Metric{"rss_peak_mb", "MiB", "lower", 0.20, 0}, func(r *Rep) float64 { return r.RSSPeakMB }},
	{Metric{"alloc_mb", "MiB", "lower", 0.05, 0}, func(r *Rep) float64 { return r.AllocMB }},
}

// Layers are the attribution buckets of the CPU profile: the internal
// packages, then garbage-collector workers and everything else.
var Layers = []string{"sim", "netem", "transport", "transport.expresspass", "transport.homa",
	"transport.ndp", "transport.rdbase", "core", "audit", "experiments", "workload", "stats",
	"scenario", "scheme", "flatmap", "runtime.gc", "runtime.other"}

// layerExperiments are the paper-quick experiments timed one by one: the
// eight that take the longest.
var layerExperiments = []string{"table1", "fig4", "fig14", "table4", "fig1", "ablation", "fig3", "fig17"}

// layerInput is what the per-layer metrics are computed from: the timed reps
// of a run, its traced reps, the audited check rep (nil when the workload
// has none) and the folded CPU profile (nil when nothing was traced).
type layerInput struct {
	timed, traced []*Rep
	check         *Rep
	prof          *Profile
}

type perLayer struct {
	Metric
	of func(*layerInput) float64
}

func (in *layerInput) counters() Counters { return in.timed[0].Counters }

func (in *layerInput) wall() float64 {
	return median(values(in.timed, func(r *Rep) float64 { return r.WallS }))
}

// call is the median of a separately timed call over the traced reps.
func (in *layerInput) call(name string) float64 {
	if len(in.traced) == 0 {
		return 0
	}
	return median(values(in.traced, func(r *Rep) float64 { return r.CallS[name] }))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func count[T ~int | ~uint64](name, unit string, of func(Counters) T) perLayer {
	return perLayer{Metric{Name: name, Unit: unit, Better: "lower"},
		func(in *layerInput) float64 { return float64(of(in.counters())) }}
}

// PerLayer lists the per-layer metrics. Counts come from the first timed rep
// (they repeat exactly for a seed), times are medians over the timed reps,
// separately timed calls are medians over the traced reps, and self_frac is
// each layer's share of the CPU samples. A metric reads 0 on a workload that
// does not exercise its layer.
var PerLayer = buildPerLayer()

func buildPerLayer() []perLayer {
	drop := func(i int) func(Counters) uint64 { return func(c Counters) uint64 { return c.Drops[i] } }
	ms := []perLayer{
		count("sim.events", "count", func(c Counters) uint64 { return c.Events }),
		{Metric{"sim.events_per_pkt_hop", "ratio", "lower", 0, 0}, func(in *layerInput) float64 {
			return ratio(float64(in.counters().Events), float64(in.counters().TxPkts))
		}},
		{Metric{"sim.events_per_s", "1/s", "higher", 0, 0}, func(in *layerInput) float64 {
			return ratio(float64(in.counters().Events), in.wall())
		}},
		// Simulated µs per wall second, Σ final Engine.Now() over the runs.
		// Not end to end: on paper-quick the simulated span of a few runs
		// (timeouts, deadlines) moves it by 2.5x from seed to seed.
		{Metric{"sim.sim_us_per_s", "us/s", "higher", 0, 0}, func(in *layerInput) float64 {
			return ratio(in.counters().SimUS, in.wall())
		}},
		count("sim.peak_pending", "count", func(c Counters) int { return c.PeakPending }),
		count("sim.peak_overflow", "count", func(c Counters) int { return c.PeakOverflow }),
		count("sim.event_slots", "count", func(c Counters) uint64 { return c.EventSlots }),
		{Metric{"sim.shard_imbalance", "ratio", "lower", 0, 0}, func(in *layerInput) float64 { return in.counters().Imbalance }},
		{Metric{"sim.parallel_util", "frac", "higher", 0, 0}, func(in *layerInput) float64 {
			return median(values(in.timed, func(r *Rep) float64 { return r.CPUS / (r.WallS * float64(r.GOMAXPROCS)) }))
		}},
		count("netem.tx_pkts", "count", func(c Counters) uint64 { return c.TxPkts }),
		count("netem.pkt_gets", "count", func(c Counters) uint64 { return c.PktGets }),
		count("netem.pkt_allocated", "count", func(c Counters) uint64 { return c.PktAllocated }),
		{Metric{"netem.pkt_reuse_frac", "frac", "higher", 0, 0}, func(in *layerInput) float64 {
			c := in.counters()
			return 1 - ratio(float64(c.PktAllocated), float64(c.PktGets))
		}},
		count("netem.drops.tail", "count", drop(0)),
		count("netem.drops.selective", "count", drop(1)),
		count("netem.drops.credit", "count", drop(2)),
		count("netem.drops.trim_fail", "count", drop(3)),
		count("netem.drops.impair", "count", drop(4)),
		{Metric{"netem.build_s", "s", "lower", 0, 0}, func(in *layerInput) float64 { return in.call("netem.build_s") }},
		count("transport.state_flows", "count", func(c Counters) int { return c.State.Flows }),
		count("transport.state_senders", "count", func(c Counters) int { return c.State.Senders }),
		count("transport.state_receivers", "count", func(c Counters) int { return c.State.Receivers }),
		{Metric{"transport.efficiency", "frac", "higher", 0, 0}, func(in *layerInput) float64 {
			return ratio(float64(in.counters().Delivered), float64(in.counters().Sent))
		}},
		count("transport.timeout_flows", "count", func(c Counters) int { return c.TimeoutFlows }),
		{Metric{"audit.events", "count", "lower", 0, 0}, func(in *layerInput) float64 {
			if in.timed[0].Audit || in.check == nil {
				return float64(in.counters().AuditEvents)
			}
			return float64(in.check.Counters.AuditEvents)
		}},
		{Metric{"audit.overhead_frac", "frac", "lower", 0, 0}, func(in *layerInput) float64 {
			if in.check == nil {
				return 0
			}
			return in.check.WallS/in.wall() - 1
		}},
		{Metric{"workload.generate_s", "s", "lower", 0, 0}, func(in *layerInput) float64 { return in.call("workload.generate_s") }},
		{Metric{"stats.summarize_s", "s", "lower", 0, 0}, func(in *layerInput) float64 { return in.call("stats.summarize_s") }},
		{Metric{"scenario.lower_s", "s", "lower", 0, 0}, func(in *layerInput) float64 { return in.call("scenario.lower_s") }},
		count("experiments.runs", "count", func(c Counters) int { return c.Runs }),
		{Metric{"runtime.gc_frac", "frac", "lower", 0, 0}, func(in *layerInput) float64 {
			return median(values(in.timed, func(r *Rep) float64 { return r.GCFrac }))
		}},
		{Metric{"runtime.gc_cycles", "count", "lower", 0, 0}, func(in *layerInput) float64 {
			return median(values(in.timed, func(r *Rep) float64 { return float64(r.GCCycles) }))
		}},
		{Metric{"runtime.mallocs", "count", "lower", 0, 0}, func(in *layerInput) float64 {
			return median(values(in.timed, func(r *Rep) float64 { return float64(r.Mallocs) }))
		}},
		{Metric{"trace.overhead_frac", "frac", "lower", 0, 0}, func(in *layerInput) float64 {
			if len(in.traced) == 0 {
				return 0
			}
			return median(values(in.traced, func(r *Rep) float64 { return r.WallS }))/in.wall() - 1
		}},
		{Metric{"trace.samples", "count", "higher", 0, 0}, func(in *layerInput) float64 {
			if in.prof == nil {
				return 0
			}
			return in.prof.Samples
		}},
		{Metric{"trace.attributed_frac", "frac", "higher", 0, 0}, func(in *layerInput) float64 {
			if in.prof == nil {
				return 0
			}
			return 1 - in.prof.Share("runtime.other")
		}},
	}
	for _, id := range layerExperiments {
		ms = append(ms, perLayer{Metric{"experiments." + id + ".wall_s", "s", "lower", 0, 0},
			func(in *layerInput) float64 {
				return median(values(in.timed, func(r *Rep) float64 { return r.ExpWallS[id] }))
			}})
	}
	for _, layer := range Layers {
		ms = append(ms, perLayer{Metric{layer + ".self_frac", "frac", "lower", 0, 0},
			func(in *layerInput) float64 {
				if in.prof == nil {
					return 0
				}
				return in.prof.Share(layer)
			}})
	}
	return ms
}

// values maps reps to one number each.
func values(reps []*Rep, of func(*Rep) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = of(r)
	}
	return v
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (its default, exclusive method),
// so the spreads reported here match that common reference.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// Summary is a metric's median and quartiles over n samples.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, v []float64) Summary {
	q1, q3 := quartiles(v)
	return Summary{Unit: unit, Median: median(v), Q1: q1, Q3: q3, N: len(v), Samples: v}
}

// String renders the summary as one table cell group.
func (s Summary) String() string {
	return fmt.Sprintf("%12.6g %12.6g %12.6g %3d", s.Median, s.Q1, s.Q3, s.N)
}
