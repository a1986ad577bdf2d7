package experiments

import (
	"fmt"

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
// the bottleneck, before the first flow starts. The run is built by plan and
// driven by Run's stages, so it honours every runtime knob Run does except
// Observe: its multi-round traffic and in-run probe are all that is its own.
func microRun(cfg Config, n int, threshold, msg int64, rounds int,
	probe func(env *transport.Env, bottleneck *netem.Port)) {

	spec := microSpec(cfg, threshold)
	p, err := plan(cfg, spec)
	if err != nil {
		panic(err)
	}
	net := p.sn.Net
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
	probe(p.envs[0], net.Switches[0].Ports[0])
	p.inject(trace)
	// The micro fabric is one switch, which never splits, so execute drives
	// one engine and no shard waits or spins.
	p.execute(len(trace), sim.Time(200*sim.Millisecond), p.auds != nil, 0)
	p.finishAudit(cfg, spec)
}

// microSpec is the run microRun plans.
func microSpec(cfg Config, threshold int64) RunSpec {
	return RunSpec{Scheme: SchemeSpec{ID: "xpass+aeolus", Threshold: threshold, Seed: cfg.Seed}, Topo: TopoMicro}
}

// checkMicro is the Check of fig15 and fig16. Their runs differ only in the
// threshold, which no check reads, so one spec stands for them all.
func checkMicro(cfg Config) error { return CheckRun(cfg, microSpec(cfg, 0)) }

// fig15 reproduces Figure 15: average and maximum queue length on the
// congested link under different selective dropping thresholds (16-to-1,
// 200 KB per sender). The paper's observation: queue length is nearly
// linear in the threshold.
func fig15(cfg Config) []Table {
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
				// The maxQueue column is the data bands' high-water mark,
				// which never counts the credits in the front band.
				var tick func()
				tick = func() {
					sampler.Observe(bn.Backlog().Bytes)
					sampler.ObserveMax(bn.Q.MaxBacklogBytes())
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

// fig16 reproduces Figure 16: average utilization of the bottleneck link in
// the first RTT under different traffic demands (fan-in N) and selective
// dropping thresholds. The paper's observation: a threshold of 4 packets
// (6 KB) already achieves full first-RTT throughput at every demand.
func fig16(cfg Config) []Table {
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

// fig17Scenarios declares the (scheme × fan-in) incast grid of Figure 17:
// the 144-host 100G/400G fabric with 500 KB buffers, 64 KB messages, and a
// 40 µs RTO for the Homa variants.
func fig17Scenarios(cfg Config) []scenario.Scenario {
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

// fig17Tables renders Figure 17: FCT slowdown (average and 99th percentile)
// under N-to-1 incast, one row per scheme and one column per fan-in.
func fig17Tables(cfg Config, scns []scenario.Scenario, res []RunResult) []Table {
	n := len(fig17Fanins(cfg.Quick))
	cols := []string{"scheme"}
	for _, sc := range scns[:n] {
		cols = append(cols, fmt.Sprintf("N=%d", sc.Incast.Fanin))
	}
	avg := Table{ID: "fig17a", Title: "Incast FCT slowdown (average)", Columns: cols}
	p99 := Table{ID: "fig17b", Title: "Incast FCT slowdown (99th percentile)", Columns: cols}
	for i := 0; i < len(res); i += n {
		arow := []string{res[i].Scheme}
		prow := []string{res[i].Scheme}
		for _, r := range res[i : i+n] {
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

// fig18Scenarios declares the (scheme × load) goodput grid of Figure 18: Web
// Search traffic plus a 64-to-1 incast on the 144-host fabric, half the
// configured budget with a 500-flow floor so the steady state has a real span.
func fig18Scenarios(cfg Config) []scenario.Scenario {
	sweep := cfg
	sweep.Budget = cfg.Budget / 2
	sweep.MinFlows = max(cfg.MinFlows, 500)
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

// fig18Tables renders Figure 18: goodput (normalized by capacity) across
// varying network loads, one row per scheme and one column per load.
func fig18Tables(cfg Config, scns []scenario.Scenario, res []RunResult) []Table {
	n := len(fig18Loads(cfg.Quick))
	cols := []string{"scheme"}
	for _, sc := range scns[:n] {
		cols = append(cols, fmt.Sprintf("load=%.1f", sc.CoreLoad))
	}
	t := Table{ID: "fig18", Title: "Goodput vs offered load (Web Search + 64-to-1 incast mix)",
		Columns: cols}
	for i := 0; i < len(res); i += n {
		row := []string{res[i].Scheme}
		for _, r := range res[i : i+n] {
			row = append(row, f3(r.WindowGoodput))
		}
		t.Add(row...)
	}
	return []Table{t}
}
