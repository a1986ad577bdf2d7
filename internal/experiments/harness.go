package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/aeolus-transport/aeolus/internal/audit"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Config scales the experiments. The defaults run each experiment in
// seconds; raise Budget for a fuller reproduction.
type Config struct {
	// Budget is the approximate number of payload bytes offered per
	// simulation run; flow counts are derived from it and the workload's
	// mean flow size.
	Budget int64

	// MinFlows / MaxFlows clamp the derived flow count.
	MinFlows, MaxFlows int

	// Seed drives all randomness.
	Seed uint64

	// Quick trims parameter sweeps (fewer load points, fewer fan-ins) for
	// fast regression runs.
	Quick bool

	// Parallel is the number of simulation runs executed concurrently by
	// the experiment fan-out; 0 means runtime.GOMAXPROCS(0). Results are
	// independent of this value: every run derives its randomness from
	// (Seed, RunSpec) alone, never from scheduling order.
	Parallel int

	// Progress, when non-nil, is invoked after every completed run of a
	// fanned-out batch, with the batch's run count as the total. It must
	// tolerate concurrent calls; see ProgressPrinter.
	Progress ProgressFunc

	// Audit attaches the packet-conservation checker (internal/audit) to
	// every run. Fully completed runs also drain the engine so leftover
	// control traffic settles before the books are balanced; the report
	// lands in RunResult.Audit.
	Audit bool

	// OnAudit, when non-nil and Audit is set, receives every run's report.
	// It must tolerate concurrent calls when runs are fanned out.
	OnAudit func(spec RunSpec, rep *audit.Report)

	// Impair, when non-nil, applies a scripted link-impairment timeline
	// (netem.Timeline) to every run — the CLIs' -impair/-impair-file knob.
	// Per-run RunSpec.Impair takes precedence. An injected drop is a refusal
	// at Port.Send, traced and counted like any other drop, so the
	// conservation checks see it.
	Impair *netem.Timeline

	// Shards requests a spatial partition of every run's fabric: one engine
	// per shard on its own goroutine, synchronized conservatively on the
	// minimum cross-shard link latency (see netem.BuildShardedClos and
	// sim.ShardGroup). Like Parallel it is a runtime knob that scenarios do
	// not serialize. A run is deterministic at a given shard count, but it
	// need not equal the one-shard run. Homa and NDP spraying and
	// ExpressPass credit jitter draw per protocol instance, and a sharded
	// run has one instance per shard. A run that draws no random number can
	// differ too: two deliveries due at a port at the same picosecond and
	// scheduled at the same instant fire in one engine's schedule order
	// within that instant, but a cross-shard delivery fires after the
	// destination shard's own events of that instant, and ties with other
	// deliveries by source shard (netem.ShardedNetwork.Deliver). The run's
	// plan clamps the request to the topology's pod structure (an edge
	// switch and its hosts are never split), so single-pod topologies run as
	// one shard. Shards ≤ 1 means one shard.
	// A packet trace or an impairment timeline on a run that still splits is
	// an error (the tracer and the timeline's RNG and engine hooks are
	// single-engine), which CheckRun reports up front.
	Shards int

	// Observe, when non-nil, is invoked by Run once per shard, right after
	// plan has built the topology, transport and instrumentation and before
	// any flow starts, giving callers a window onto the run's internals (the
	// scale sweep hangs its footprint probes here). The §5.5
	// microbenchmarks (Fig. 15/16) plan their runs without Run and are not
	// observed. It must not schedule engine events or set env.Done.
	Observe func(net *netem.Network, env *transport.Env, proto transport.Protocol)

	// TraceFlow, when nonzero, prints every port/host event of that flow —
	// the packet-level view — to a mutex-guarded os.Stderr, so traced runs
	// stay legible when fanned out. It lives on Config, not RunSpec, because
	// it is observational: a run's identity — what a scenario serializes and
	// what feeds the golden digest — is purely semantic.
	TraceFlow uint64

	// sched selects the event queue behind every run's engines; empty means
	// sim.DefaultScheduler. Only this package's tests set it, to run the
	// reference heap as an oracle: both schedulers fire events in the same
	// (time, seq) order, so every digest must match either way.
	sched sim.SchedulerKind
}

// scheduler resolves the configured SchedulerKind, defaulting when unset.
func (c Config) scheduler() sim.SchedulerKind {
	if c.sched == "" {
		return sim.DefaultScheduler
	}
	return c.sched
}

// DefaultConfig returns a configuration sized for single-core bench runs.
func DefaultConfig() Config {
	return Config{Budget: 150 << 20, MinFlows: 100, MaxFlows: 20000, Seed: 1}
}

// flowsFor derives the flow count for a workload under the byte budget.
func (c Config) flowsFor(wl *workload.CDF) int {
	n := int(float64(c.Budget) / wl.Mean())
	if n < c.MinFlows {
		n = c.MinFlows
	}
	if n > c.MaxFlows {
		n = c.MaxFlows
	}
	return n
}

// Topology identifiers.
const (
	TopoFatTree      = "fattree"      // 8 spine/16 leaf/32 ToR/192 hosts, 100G, RTT≈52µs (ExpressPass paper)
	TopoLeafSpine    = "leafspine"    // 8 spine/8 leaf/64 hosts, 100G, RTT≈4.5µs (Homa/NDP papers)
	TopoSingleSwitch = "single"       // 8 hosts, 10G, RTT≈14µs (hardware testbed)
	TopoIncastFabric = "incastfabric" // 4 spine/9 leaf/144 hosts, 100G/400G (Fig. 17/18)
	TopoMicro        = "micro"        // 24 hosts on one 100G switch (Fig. 15/16, Table 5)
)

// RunSpec describes one simulation run.
type RunSpec struct {
	Scheme   SchemeSpec
	Topo     string
	Buffer   int64 // per-port buffer; 0 = 200 KB paper default
	Workload *workload.CDF
	CoreLoad float64
	Flows    int // 0 = derive from Config.Budget
	Incast   *workload.IncastConfig
	Deadline sim.Duration // extra simulated time after the last arrival

	// Impair, when non-nil, scripts link impairments for this run and
	// overrides Config.Impair (the degradation experiments set it per run).
	Impair *netem.Timeline
}

// RunResult aggregates the metrics every experiment consumes.
type RunResult struct {
	Scheme    string
	Total     int
	Completed int

	Small stats.Summary // flows < 100 KB
	All   stats.Summary

	// FirstRTTFrac is the fraction of small flows finishing within the base
	// RTT (the paper's "complete within the first RTT").
	FirstRTTFrac float64

	Efficiency float64

	// Goodput is the delivered rate over the whole run (arrival through
	// drain) normalized by aggregate host capacity; WindowGoodput measures
	// only the steady-state middle half of the arrival span, the Fig. 18
	// metric.
	Goodput       float64
	WindowGoodput float64
	TimeoutFlows  int
	Drops         [netem.NumDropReasons]uint64 // switch drops by netem.DropReason
	SmallCDF      [][2]float64

	// TxPackets is the total packet transmissions across every port, NICs
	// included — the per-scheme work metric the macro benchmark divides by
	// wall time to report packets/sec.
	TxPackets uint64

	// Audit is the packet-conservation report, set when Config.Audit is on.
	Audit *audit.Report

	// Events is the number of engine events fired over the run (drain
	// included), summed across shard engines; Sched sums every scheduler
	// statistic the same way (peaks sum across shards — the bound on total
	// pending-event memory). Shards records the effective shard count the
	// run executed with (1 = the engine driven directly). None of
	// these feed the golden digest: they describe the execution, not the
	// simulated outcome.
	Events uint64
	Sched  sim.SchedStats
	Shards int

	records []stats.FlowRecord
	baseRTT sim.Duration
}

// Records exposes the raw flow records of the run.
func (r *RunResult) Records() []stats.FlowRecord { return r.records }

// Every run goes through one pipeline — plan, execute, extract — and the
// sequential engine is simply its one-shard case. The fabric is built by
// netem.BuildShardedClos and cut along pod boundaries into the effective
// shard count; each shard gets its own engine, packet pool, transport
// environment and protocol instance. One shard drives its engine directly.
// Several advance in conservative lookahead windows (sim.ShardGroup), and
// each shard schedules the packet deliveries that cross the cut into it
// before its next window, in deterministic (source shard, generation order)
// order, so results are independent of goroutine scheduling.
//
// Cross-shard flows exist in two copies: the sender's shard starts the flow
// (its protocol instance owns the sender state machine), and the receiver's
// shard gets the descriptor pre-registered (Protocol.Register) so its
// protocol instance can establish receiver state when the first packet
// arrives. The receiver side reports completion, so FCT records land in the
// destination shard's collector and are merged by finish time afterwards.
// One known divergence: sender-side timeout counts stay on the sender copy,
// so a cross-shard flow's record reports Timeouts the sender copy suffered
// as 0.

// runPlan is a run built up to its first event: the fabric, and one engine,
// environment and protocol (and auditor, when auditing) per shard.
type runPlan struct {
	scheme Scheme
	topo   TopoDef
	sn     *netem.ShardedNetwork
	envs   []*transport.Env
	protos []transport.Protocol
	auds   []*audit.Auditor
}

// resolve looks up the run's scheme and topology and clamps the shard
// request to the topology's pod structure, returning a plan with one slot
// per effective shard and nothing built. It rejects traffic the generators
// cannot serve on that fabric — fewer than two hosts leave no
// sender-receiver pair, an incast receiver must be a host, and a Poisson
// workload needs a positive core load to set its arrival rate — an
// impairment timeline or a packet trace on a fabric that still splits into
// several shards, and Poisson arrivals the simulation clock cannot place
// (workload.PoissonConfig.Check).
func resolve(cfg Config, spec RunSpec) (*runPlan, error) {
	scheme, err := MakeScheme(spec.Scheme)
	if err != nil {
		return nil, err
	}
	topo, err := ResolveTopo(spec.Topo)
	if err != nil {
		return nil, err
	}
	n := 1
	if cfg.Shards > 1 {
		n = netem.ShardCount(topo.Spec, cfg.Shards)
	}
	hosts := topo.Hosts()
	switch {
	case hosts < 2:
		err = fmt.Errorf("experiments: topology %s has %d host; traffic needs at least 2", spec.Topo, hosts)
	case spec.Incast != nil && (spec.Incast.Receiver < 0 || spec.Incast.Receiver >= hosts):
		err = fmt.Errorf("experiments: incast receiver %d is not a host of topology %s (hosts 0..%d)",
			spec.Incast.Receiver, spec.Topo, hosts-1)
	case spec.Buffer > 0 && spec.Buffer < int64(netem.WireSizeFor(scheme.MSS)):
		err = fmt.Errorf("experiments: buffer %d B cannot hold one full %d B frame of scheme %s",
			spec.Buffer, netem.WireSizeFor(scheme.MSS), spec.Scheme.ID)
	case spec.Workload != nil && !(spec.CoreLoad > 0):
		err = fmt.Errorf("experiments: core load %v must be positive to drive a Poisson workload", spec.CoreLoad)
	case n > 1 && (spec.Impair != nil || cfg.Impair != nil):
		err = fmt.Errorf("experiments: impairment timelines need one shard, but topology %s splits into %d (impairments are engine-local)", spec.Topo, n)
	case n > 1 && cfg.TraceFlow != 0:
		err = fmt.Errorf("experiments: packet tracing needs one shard, but topology %s splits into %d (the tracer is engine-local)", spec.Topo, n)
	case spec.Workload != nil:
		if perr := poisson(cfg, spec, topo).Check(); perr != nil {
			err = fmt.Errorf("experiments: core load %v on topology %s: %v", spec.CoreLoad, spec.Topo, perr)
		}
	}
	if err != nil {
		return nil, err
	}
	return &runPlan{scheme: scheme, topo: topo,
		envs: make([]*transport.Env, n), protos: make([]transport.Protocol, n)}, nil
}

// poisson is the arrival process of spec's workload on topo.
func poisson(cfg Config, spec RunSpec, topo TopoDef) *workload.PoissonConfig {
	flows := spec.Flows
	if flows <= 0 {
		flows = cfg.flowsFor(spec.Workload)
	}
	return &workload.PoissonConfig{
		CDF: spec.Workload, Hosts: topo.Hosts(), HostRate: topo.Spec.HostRate,
		Load: topo.EdgeLoad(spec.CoreLoad), Flows: flows,
		Seed: cfg.Seed ^ spec.Scheme.Seed, StartAt: sim.Time(10 * sim.Microsecond),
	}
}

// plan resolves the run, builds the fabric and its per-shard protocol
// instances, and installs the impairment timeline, the packet tracer and the
// auditors. None of them wraps anything: the timeline sets each port's Imp
// and the tracers its Tap, which Port.Send consults in a fixed order, so an
// injected drop is traced and attributed like any other drop. plan is the
// only place a run is built: Run and the §5.5 microbenchmarks both start
// here.
func plan(cfg Config, spec RunSpec) (*runPlan, error) {
	p, err := resolve(cfg, spec)
	if err != nil {
		return nil, err
	}
	n := len(p.envs)
	buffer := spec.Buffer
	if buffer <= 0 {
		buffer = netem.DefaultBuffer
	}
	sn := netem.BuildShardedClos(p.topo.Spec, n, cfg.scheduler(),
		p.scheme.Factory(buffer), netem.WireSizeFor(p.scheme.MSS))
	p.sn = sn
	for i := range p.envs {
		p.envs[i] = transport.NewEnv(sn.View(i), p.scheme.MSS)
		p.protos[i] = p.scheme.New(p.envs[i])
	}
	impair := spec.Impair
	if impair == nil {
		impair = cfg.Impair
	}
	if impair != nil {
		if err := impair.Apply(sn.Net, cfg.Seed^spec.Scheme.Seed); err != nil {
			return nil, fmt.Errorf("experiments: %v", err)
		}
	}
	if flow := cfg.TraceFlow; flow != 0 {
		tr := &netem.WriterTracer{W: stderrLocked,
			Filter: func(p *netem.Packet) bool { return p.Flow == flow }}
		netem.InstrumentPorts(sn.Net.AllPorts(), tr)
		netem.InstrumentHosts(sn.Net.Hosts, tr)
	}
	if cfg.Audit {
		p.auds = make([]*audit.Auditor, n)
		for i := range p.auds {
			p.auds[i] = audit.AttachScope(sn.Engines[i], sn.Pools[i],
				sn.ShardPorts(i), sn.ShardHosts(i), n > 1)
			if n > 1 {
				sn.SetBoundary(i, p.auds[i])
			}
		}
	}
	return p, nil
}

// CheckRun returns the error Run would panic with, without executing the
// run — the up-front validation hook of the CLIs and CheckScenario. An
// unknown scheme or topology, traffic the generators cannot serve on the
// fabric, an impairment target matching no port, or a timeline or packet
// trace on a run whose fabric still splits into several shards is a spec
// bug, not a run result. Only a run with a timeline is planned, because its
// targets resolve against the built fabric; the others build nothing.
func CheckRun(cfg Config, spec RunSpec) error {
	if spec.Impair == nil && cfg.Impair == nil {
		_, err := resolve(cfg, spec)
		return err
	}
	cfg.Audit = false
	_, err := plan(cfg, spec)
	return err
}

// Run executes one simulation and collects the metrics, in stages: plan,
// observe, traffic and goodput samplers, inject, execute, extract and
// finishAudit. A spec the plan rejects panics; the CLIs validate up front
// with CheckRun.
func Run(cfg Config, spec RunSpec) RunResult { return run(cfg, spec, 1) }

// run is Run as one of concurrent runs executing at once, which decides
// whether a sharded run's waiting goroutines spin (shardSpin).
func run(cfg Config, spec RunSpec, concurrent int) RunResult {
	p, err := plan(cfg, spec)
	if err != nil {
		panic(err)
	}
	if cfg.Observe != nil {
		for i, env := range p.envs {
			cfg.Observe(env.Net, env, p.protos[i])
		}
	}
	sn := p.sn
	var trace []workload.FlowSpec
	if spec.Workload != nil {
		trace = poisson(cfg, spec, p.topo).Generate()
	}
	if spec.Incast != nil {
		ic := *spec.Incast
		ic.Hosts = p.topo.Hosts()
		ic.BaseID = uint64(len(trace)) + 1000000
		trace = workload.Merge(trace, ic.Generate())
	}
	deadline := spec.Deadline
	if deadline <= 0 {
		deadline = 500 * sim.Millisecond
	}
	var first, last sim.Time
	if len(trace) > 0 {
		first = trace[0].Start
		for _, f := range trace {
			if f.Start > last {
				last = f.Start
			}
		}
	}
	// Steady-state goodput window: the middle half of the arrival span. Each
	// shard samples its own meter at the same simulated instants; samplers
	// scheduled before any flow order ahead of every runtime event at the
	// same timestamp, so the per-shard samples sum to the one-engine sample.
	n := len(p.envs)
	d1s, d2s := make([]int64, n), make([]int64, n)
	t1 := first.Add(sim.Duration(last-first) / 4)
	t2 := first.Add(3 * sim.Duration(last-first) / 4)
	if t2 > t1 {
		for i, env := range p.envs {
			env.Eng.At(t1, func() { d1s[i] = env.Meter.DeliveredPayload })
			env.Eng.At(t2, func() { d2s[i] = env.Meter.DeliveredPayload })
		}
	}
	p.inject(trace)

	total := len(trace)
	endTime := p.execute(total, last.Add(deadline), p.auds != nil, shardSpin(concurrent, n))

	res := RunResult{
		Scheme:    p.scheme.Name,
		Total:     total,
		Completed: p.completed(),
		baseRTT:   sn.Net.BaseRTT,
		Shards:    n,
	}
	// Metric extraction runs on the collector's scratch buffers: the CDF
	// consumes the filtered view before the next Filter call invalidates it.
	fct := p.collector(total)
	res.records = fct.Records()
	small := fct.Filter(0, 100_000)
	res.Small = fct.Summarize(small)
	res.All = fct.Summarize(res.records)
	if len(small) > 0 {
		k := 0
		for _, r := range small {
			if r.FCT() <= sn.Net.BaseRTT {
				k++
			}
		}
		res.FirstRTTFrac = float64(k) / float64(len(small))
	}
	var meter stats.ByteMeter
	var d1, d2 int64
	for i, env := range p.envs {
		meter.SentPayload += env.Meter.SentPayload
		meter.DeliveredPayload += env.Meter.DeliveredPayload
		d1 += d1s[i]
		d2 += d2s[i]
	}
	res.Efficiency = meter.Efficiency()
	capacity := sim.Rate(int64(sn.Net.HostRate) * int64(len(sn.Net.Hosts)))
	res.Goodput = meter.Goodput(endTime.Sub(0), capacity)
	if t2 > t1 && d2 > d1 {
		res.WindowGoodput = float64(d2-d1) * 8 / sim.Duration(t2-t1).Seconds() / float64(capacity)
	} else if span := endTime.Sub(first); total > 0 && span > 0 {
		// Simultaneous arrivals (pure incast) collapse the middle-half
		// window to nothing; fall back to the whole arrival→drain span.
		res.WindowGoodput = float64(meter.DeliveredPayload) * 8 / span.Seconds() / float64(capacity)
	}
	res.TimeoutFlows = fct.TimeoutFlows()
	res.Drops = netem.DropTotals(sn.Net.SwitchPorts())
	for _, pt := range sn.Net.AllPorts() {
		res.TxPackets += pt.TxPackets
	}
	res.SmallCDF = stats.FCTCDF(small)
	for _, e := range sn.Engines {
		res.Events += e.Fired()
		ss := e.SchedStats()
		res.Sched.Pending += ss.Pending
		res.Sched.PeakPending += ss.PeakPending
		res.Sched.FarPlaced += ss.FarPlaced
	}
	res.Audit = p.finishAudit(cfg, spec)
	return res
}

// inject hands the trace to the engines. Every shard may carry any flow's
// packets (spine shards forward traffic they neither source nor sink), so
// sizes register with every auditor. Each FCT collector is pre-sized with
// the flows it will record — completions are receiver-side in all three
// transports — so completion recording never grows the heap mid-run. The
// sender's shard then starts each flow at its arrival time; a cross-shard
// receiver gets its own pre-registered copy of the descriptor.
func (p *runPlan) inject(trace []workload.FlowSpec) {
	sn := p.sn
	for _, f := range trace {
		for _, a := range p.auds {
			a.RegisterFlow(f.ID, f.Size)
		}
	}
	perDst := make([]int, len(p.envs))
	for _, fs := range trace {
		perDst[sn.HostShard(netem.NodeID(fs.Dst))]++
	}
	for i, env := range p.envs {
		env.FCT.Reserve(perDst[i])
	}
	for _, fs := range trace {
		f := &transport.Flow{
			ID:     fs.ID,
			Src:    netem.NodeID(fs.Src),
			Dst:    netem.NodeID(fs.Dst),
			Size:   fs.Size,
			Start:  fs.Start,
			PathID: transport.FlowHash(fs.ID),
		}
		s := sn.HostShard(f.Src)
		if d := sn.HostShard(f.Dst); d != s {
			rf := *f
			p.protos[d].Register(&rf)
		}
		proto := p.protos[s]
		p.envs[s].Eng.At(f.Start, func() { proto.Start(f) })
	}
}

// completed returns the number of flows completed across every shard.
func (p *runPlan) completed() int {
	n := 0
	for _, env := range p.envs {
		n += env.Completed()
	}
	return n
}

// execute runs the engines until all total flows complete or endAt passes
// and returns the run's end time: the last completion, or endAt. With drain
// set and every flow complete, it then runs on until every engine is idle,
// so in-flight control traffic and disarmed timers settle and the
// drain-time audit invariants hold in their strict form (completed flows
// disarm every retransmission loop, so the drain terminates). spin is the
// shard group's sim.ShardGroup.Spin; one engine never waits.
func (p *runPlan) execute(total int, endAt sim.Time, drain bool, spin time.Duration) sim.Time {
	if len(p.envs) == 1 {
		// One engine, driven directly: stop at the event that completes the
		// last flow, so the end time is that completion's timestamp.
		env := p.envs[0]
		env.Done = func(*transport.Flow, stats.FlowRecord) {
			if env.Completed() == total {
				env.Eng.Stop()
			}
		}
		env.Eng.RunUntil(endAt)
		end := env.Eng.Now()
		if drain && env.Completed() == total {
			env.Eng.Run()
		}
		return end
	}
	group := &sim.ShardGroup{
		Engines:   p.sn.Engines,
		Lookahead: p.sn.Lookahead,
		Exchange:  p.sn,
		StopWhen:  func() bool { return p.completed() == total },
		Spin:      spin,
	}
	group.Run(endAt)
	if p.completed() != total {
		return endAt
	}
	// The group stops after the window of the last completion; recover the
	// completion's timestamp from the records.
	var end sim.Time
	for _, env := range p.envs {
		for _, r := range env.FCT.Records() {
			end = max(end, r.Finish)
		}
	}
	if drain {
		group.StopWhen = nil
		group.Run(sim.MaxTime)
	}
	return end
}

// spinBudget is how long a sharded run's waiting goroutines spin before
// they park, when shardSpin allows it: about two windows of a 256-host run
// on 2 shards, well past the 50–200 µs an OS wake-up of a parked goroutine
// can take.
const spinBudget = 2 * time.Millisecond

// shardSpin returns the spin budget of a run on shards shards, one of
// concurrent runs executing at once: spinBudget when every shard goroutine
// of every such run has a processor of its own, else zero. A spinning shard
// on an oversubscribed machine holds the processor that the shard it waits
// for needs.
func shardSpin(concurrent, shards int) time.Duration {
	if runtime.GOMAXPROCS(0) >= concurrent*shards {
		return spinBudget
	}
	return 0
}

// collector returns the run's flow records: the shard's own collector when
// there is one shard, otherwise the per-shard records merged by finish time.
// Within a shard the collector order is completion order; the stable merge
// keeps it, so ties across shards break deterministically by shard index.
func (p *runPlan) collector(total int) *stats.FCTCollector {
	if len(p.envs) == 1 {
		return &p.envs[0].FCT
	}
	merged := &stats.FCTCollector{}
	merged.Reserve(total)
	for _, env := range p.envs {
		for _, r := range env.FCT.Records() {
			merged.Add(r)
		}
	}
	recs := merged.Records()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Finish < recs[j].Finish })
	return merged
}

// finishAudit returns the run's audit report, also handed to Config.OnAudit,
// or nil when the run is not audited.
func (p *runPlan) finishAudit(cfg Config, spec RunSpec) *audit.Report {
	if p.auds == nil {
		return nil
	}
	rep := p.auditReport()
	if cfg.OnAudit != nil {
		cfg.OnAudit(spec, rep)
	}
	return rep
}

// auditReport finishes every shard's auditor and returns the run's report:
// the shard's own for one shard, otherwise the merged report plus the
// cross-pool balance only the merged view can check — once every engine
// drains, every packet handed out by some pool was returned to some pool.
func (p *runPlan) auditReport() *audit.Report {
	reps := make([]*audit.Report, len(p.auds))
	for i, a := range p.auds {
		a.AuditProtocol(p.protos[i].AuditInvariants())
		a.CheckMeter(p.envs[i].Meter.SentPayload, p.envs[i].Meter.DeliveredPayload)
		reps[i] = a.Finish()
	}
	if len(reps) == 1 {
		return reps[0]
	}
	rep := audit.MergeReports(reps)
	for _, e := range p.sn.Engines {
		if e.Pending() != 0 {
			return rep
		}
	}
	if rep.Pool.Gets != rep.Pool.Puts {
		rep.AddViolation(audit.Violation{Check: "pool-leak",
			Detail: fmt.Sprintf("engines idle but pools handed out %d packets and got back %d",
				rep.Pool.Gets, rep.Pool.Puts)})
	}
	return rep
}
