package experiments

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/audit"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// microRun runs the §5.5 microbenchmark under ExpressPass+Aeolus with the
// given selective-dropping threshold: n senders on one 100G switch each send
// msg bytes to host 0 at 10 µs — "in each RTT, all the senders transfer
// 200KB data to the receiver" — and again every base RTT for the given
// number of rounds. probe instruments the run through the receiver downlink,
// the bottleneck, before the first flow starts. The run honours the
// Config knobs Run does: the impairment timeline under Run's seed rule, and
// the auditor, drained after a complete run and reported through OnAudit.
func microRun(cfg Config, n int, threshold, msg int64, rounds int,
	probe func(env *transport.Env, bottleneck *netem.Port)) {

	spec := SchemeSpec{ID: "xpass+aeolus", Threshold: threshold, Seed: cfg.Seed}
	scheme := mustScheme(spec)
	net := mustTopo(TopoMicro).Build(scheme.Factory(netem.DefaultBuffer), netem.WireSizeFor(scheme.MSS), cfg.scheduler())
	env := transport.NewEnv(net, scheme.MSS)
	proto := scheme.New(env)
	if cfg.Impair != nil {
		if err := cfg.Impair.Apply(net, cfg.Seed^spec.Seed); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
	}
	var traces [][]workload.FlowSpec
	for round := 0; round < rounds; round++ {
		start := sim.Time(10 * sim.Microsecond).Add(sim.Duration(round) * net.BaseRTT)
		traces = append(traces, (&workload.IncastConfig{
			Fanin: n, Receiver: 0, Hosts: len(net.Hosts), MsgSize: msg,
			Seed: cfg.Seed + uint64(round), StartAt: start,
			BaseID: uint64(round) * 10000,
		}).Generate())
	}
	trace := workload.Merge(traces...)
	var aud *audit.Auditor
	if cfg.Audit {
		aud = audit.Attach(net)
		for _, f := range trace {
			aud.RegisterFlow(f.ID, f.Size)
		}
	}
	probe(env, net.Switches[0].Ports[0])
	done := transport.Runner(env, proto, trace, sim.Time(200*sim.Millisecond))
	if aud == nil {
		return
	}
	if done == len(trace) {
		env.Eng.Run() // drain, so the drain-time checks hold in their strict form
	}
	aud.AuditProtocol(proto)
	aud.CheckMeter(env.Meter.SentPayload, env.Meter.DeliveredPayload)
	if cfg.OnAudit != nil {
		cfg.OnAudit(RunSpec{Scheme: spec, Topo: TopoMicro}, aud.Finish())
	}
}

// Fig15 reproduces Figure 15: average and maximum queue length on the
// congested link under different selective dropping thresholds (16-to-1,
// 200 KB per sender). The paper's observation: queue length is nearly
// linear in the threshold.
func Fig15(cfg Config) []Table {
	t := Table{ID: "fig15", Title: "Queue length vs selective dropping threshold (16-to-1, 200KB each)",
		Columns: []string{"threshold/KB", "avgQueue/KB", "maxQueue/KB"}}
	thresholds := []int64{1538, 3 << 10, 6 << 10, 12 << 10, 24 << 10, 48 << 10, 96 << 10}
	if cfg.Quick {
		thresholds = []int64{1538, 6 << 10, 48 << 10}
	}
	rounds := 20
	if cfg.Quick {
		rounds = 6
	}
	samplers := make([]stats.QueueSampler, len(thresholds))
	forEachPar(cfg, len(thresholds), func(i int) {
		sampler := &samplers[i]
		microRun(cfg, 16, thresholds[i], 200_000, rounds,
			func(env *transport.Env, bn *netem.Port) {
				// Sample while the per-RTT bursts keep arriving.
				stop := sim.Time(10 * sim.Microsecond).Add(sim.Duration(rounds) * env.Net.BaseRTT)
				// The maxQueue column is this queue's high-water mark: a
				// bottleneck of any other shape panics here rather than
				// leave the column silently unobserved.
				data := bn.Q.(*netem.XPassQdisc).Data().(*netem.Queue)
				var tick func()
				tick = func() {
					sampler.Observe(bn.Backlog().Bytes)
					sampler.ObserveMax(data.MaxBacklogBytes())
					if env.Eng.Now() < stop {
						env.Eng.After(200*sim.Nanosecond, tick)
					}
				}
				env.Eng.At(sim.Time(10*sim.Microsecond), tick)
			})
	})
	for i, th := range thresholds {
		t.Add(f1(float64(th)/1024), f2(samplers[i].Mean()/1024), f2(float64(samplers[i].Max())/1024))
	}
	return []Table{t}
}

// Fig16 reproduces Figure 16: average utilization of the bottleneck link in
// the first RTT under different traffic demands (fan-in N) and selective
// dropping thresholds. The paper's observation: a threshold of 4 packets
// (6 KB) already achieves full first-RTT throughput at every demand.
func Fig16(cfg Config) []Table {
	t := Table{ID: "fig16", Title: "First-RTT bottleneck utilization vs fan-in and threshold",
		Columns: []string{"fanin", "th=1.5KB", "th=3KB", "th=6KB", "th=12KB"}}
	fanins := []int{2, 4, 8, 16, 24, 32, 40}
	if cfg.Quick {
		fanins = []int{2, 8, 24}
	}
	thresholds := []int64{1538, 3 << 10, 6 << 10, 12 << 10}
	utils := make([]float64, len(fanins)*len(thresholds))
	forEachPar(cfg, len(utils), func(i int) {
		n, th := fanins[i/len(thresholds)], thresholds[i%len(thresholds)]
		var meter stats.UtilizationMeter
		microRun(cfg, n, th, 200_000, 1,
			func(env *transport.Env, bn *netem.Port) {
				// Window: one base RTT starting when the burst's front
				// reaches the bottleneck.
				start := sim.Time(10*sim.Microsecond) + sim.Time(2*sim.Microsecond)
				env.Eng.At(start, func() { meter.Start(bn.TxBytes, start) })
				end := start.Add(env.Net.BaseRTT)
				env.Eng.At(end, func() {
					utils[i] = meter.Stop(bn.TxBytes, end, bn.Rate)
				})
			})
	})
	for fi, n := range fanins {
		row := []string{fmt.Sprint(n)}
		for ti := range thresholds {
			row = append(row, f3(utils[fi*len(thresholds)+ti]))
		}
		t.Add(row...)
	}
	return []Table{t}
}

// fig17Schemes are the six schemes of the heavy-incast and goodput studies.
var fig17Schemes = []string{"xpass", "xpass+aeolus", "homa", "homa+aeolus", "ndp", "ndp+aeolus"}

// fig17Fanins is the fan-in axis of the heavy-incast study.
func fig17Fanins(quick bool) []int {
	if quick {
		return []int{32, 128}
	}
	return []int{32, 64, 128, 256}
}

// Fig17Scenarios declares the (scheme × fan-in) incast grid of Fig. 17: the
// 144-host 100G/400G fabric with 500 KB buffers, 64 KB messages, and a 40 µs
// RTO for the Homa variants.
func Fig17Scenarios(cfg Config) []scenario.Scenario {
	var scns []scenario.Scenario
	for _, id := range fig17Schemes {
		for _, n := range fig17Fanins(cfg.Quick) {
			sc := scenario.Scenario{
				Topo: TopoIncastFabric, Scheme: id, Buffer: 500 << 10,
				Seed: cfg.Seed, SchemeSeed: cfg.Seed,
				Incast: &scenario.IncastSpec{
					Fanin: n, Receiver: 0, MsgSize: 64_000, Seed: cfg.Seed,
					StartAt: 10 * sim.Microsecond,
				},
				Deadline: sim.Duration(1 * sim.Second),
			}
			if id == "homa" || id == "homa+aeolus" {
				sc.RTO = 40 * sim.Microsecond
			}
			scns = append(scns, sc)
		}
	}
	return scns
}

// Fig17 reproduces Figure 17: FCT slowdown (average and 99th percentile)
// under N-to-1 incast for N in 32..256, on the 144-host 100G/400G fabric
// with 500 KB buffers and 64 KB flows; Homa uses a 40 µs RTO.
func Fig17(cfg Config) []Table {
	avg := Table{ID: "fig17a", Title: "Incast FCT slowdown (average)",
		Columns: []string{"scheme", "N=32", "N=64", "N=128", "N=256"}}
	p99 := Table{ID: "fig17b", Title: "Incast FCT slowdown (99th percentile)",
		Columns: []string{"scheme", "N=32", "N=64", "N=128", "N=256"}}
	fanins := fig17Fanins(cfg.Quick)
	if cfg.Quick {
		avg.Columns = []string{"scheme", "N=32", "N=128"}
		p99.Columns = avg.Columns
	}
	res := RunScenarios(cfg, Fig17Scenarios(cfg))
	i := 0
	for range fig17Schemes {
		arow := []string{""}
		prow := []string{""}
		for range fanins {
			r := res[i]
			i++
			arow[0], prow[0] = r.Scheme, r.Scheme
			arow = append(arow, f1(r.All.MeanSlowdown))
			prow = append(prow, f1(r.All.P99Slowdown))
		}
		avg.Add(arow...)
		p99.Add(prow...)
	}
	return []Table{avg, p99}
}

// fig18Loads is the offered-load axis of the goodput study.
func fig18Loads(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.9}
	}
	return []float64{0.3, 0.5, 0.7, 0.9}
}

// Fig18Scenarios declares the (scheme × load) goodput grid of Fig. 18: Web
// Search traffic plus a 64-to-1 incast on the 144-host fabric, half the
// configured budget with a 500-flow floor so the steady state has a real span.
func Fig18Scenarios(cfg Config) []scenario.Scenario {
	sweep := cfg
	sweep.Budget = cfg.Budget / 2
	sweep.MinFlows = maxI(cfg.MinFlows, 500)
	wl := workload.WebSearch.Name()
	var scns []scenario.Scenario
	for _, id := range fig17Schemes {
		for _, load := range fig18Loads(cfg.Quick) {
			sc := poissonScenario(sweep, id, wl, TopoIncastFabric, load)
			sc.Buffer = 500 << 10
			sc.Incast = &scenario.IncastSpec{
				Fanin: 64, Receiver: 0, MsgSize: 64_000, Seed: cfg.Seed,
				StartAt: 100 * sim.Microsecond,
			}
			if id == "homa" || id == "homa+aeolus" {
				sc.RTO = 40 * sim.Microsecond
			}
			scns = append(scns, sc)
		}
	}
	return scns
}

// Fig18 reproduces Figure 18: goodput (normalized by capacity) across
// varying network loads, for all six schemes, under a mix of Web Search
// traffic and 64-to-1 incast bursts.
func Fig18(cfg Config) []Table {
	loads := fig18Loads(cfg.Quick)
	cols := []string{"scheme"}
	for _, l := range loads {
		cols = append(cols, fmt.Sprintf("load=%.1f", l))
	}
	t := Table{ID: "fig18", Title: "Goodput vs offered load (Web Search + 64-to-1 incast mix)",
		Columns: cols}
	res := RunScenarios(cfg, Fig18Scenarios(cfg))
	i := 0
	for range fig17Schemes {
		row := []string{""}
		for range loads {
			row[0] = res[i].Scheme
			row = append(row, f3(res[i].WindowGoodput))
			i++
		}
		t.Add(row...)
	}
	return []Table{t}
}
