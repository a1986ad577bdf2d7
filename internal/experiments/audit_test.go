package experiments

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/audit"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// auditSweepSpecs builds one audited incast run per registered scheme, on
// the 24-host microbenchmark switch — the golden trace, so a newly
// registered scheme is swept automatically.
func auditSweepSpecs() []RunSpec {
	entries := Schemes()
	specs := make([]RunSpec, 0, len(entries))
	for _, e := range entries {
		specs = append(specs, GoldenSpec(e.ID))
	}
	return specs
}

// TestAuditSweepAllSchemes runs every scheme in the catalogue under the
// packet-conservation auditor and requires a clean report: all flows
// complete, every injected byte accounted, queues and protocol state
// coherent at drain. Both event schedulers are swept — the auditor's
// drain-time invariants lean on Engine.CheckInvariants, which validates
// whichever queue structure backs the run.
func TestAuditSweepAllSchemes(t *testing.T) {
	for _, sched := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
		t.Run(string(sched), func(t *testing.T) { auditSweep(t, sched) })
	}
}

func auditSweep(t *testing.T, sched sim.SchedulerKind) {
	cfg := testConfig()
	cfg.Audit = true
	cfg.sched = sched
	var mu sync.Mutex
	audited := 0
	cfg.OnAudit = func(_ RunSpec, rep *audit.Report) {
		mu.Lock()
		defer mu.Unlock()
		audited++
	}
	// Fanned out, so concurrent audited runs are exercised too (the
	// race-enabled CI pass covers this package).
	cfg.Parallel = 4
	specs := auditSweepSpecs()
	res := make([]RunResult, len(specs))
	forEachPar(cfg, len(specs), func(i int) { res[i] = Run(cfg, specs[i]) })
	for i, r := range res {
		id := specs[i].Scheme.ID
		if r.Completed != r.Total {
			t.Errorf("%s: completed %d of %d", id, r.Completed, r.Total)
		}
		if r.Audit == nil {
			t.Errorf("%s: no audit report", id)
			continue
		}
		if err := r.Audit.Err(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if r.Audit.InjectedPayload == 0 || r.Audit.UniquePayload == 0 {
			t.Errorf("%s: empty ledger %+v", id, r.Audit)
		}
	}
	if audited != len(specs) {
		t.Errorf("OnAudit fired %d times, want %d", audited, len(specs))
	}
}

// TestAuditMicrobenchmarks checks that the §5.5 microbenchmarks, which plan
// their runs but drive them outside Run, honour Config.Audit and
// Config.Impair as Run does:
// every run of the quick fig16 sweep reports a clean audit through OnAudit
// without changing the table, and a blackholed bottleneck switch does change
// it.
func TestAuditMicrobenchmarks(t *testing.T) {
	cfg := testConfig()
	plain := fig16(cfg)
	cfg.Audit = true
	var mu sync.Mutex
	audited := 0
	cfg.OnAudit = func(spec RunSpec, rep *audit.Report) {
		mu.Lock()
		defer mu.Unlock()
		audited++
		if err := rep.Err(); err != nil {
			t.Errorf("%s on %s: %v", spec.Scheme.ID, spec.Topo, err)
		}
	}
	if got := fig16(cfg); !reflect.DeepEqual(got, plain) {
		t.Errorf("auditing changed the fig16 table:\n%+v\nwant\n%+v", got, plain)
	}
	if audited != 12 {
		t.Errorf("OnAudit fired %d times, want one per quick fig16 run (12)", audited)
	}
	tl, err := netem.ParseTimeline("blackhole", []byte("0s sw0->* blackhole"))
	if err != nil {
		t.Fatal(err)
	}
	cfg = testConfig()
	cfg.Impair = tl
	if got := fig16(cfg); reflect.DeepEqual(got, plain) {
		t.Errorf("a blackholed switch left the fig16 table unchanged:\n%+v", got)
	}
}

// TestMicrobenchmarkRuntimeKnobs checks the other runtime knobs on the
// §5.5 microbenchmarks' runs: Config.TraceFlow prints the traced flow's
// packet events, and Config.Observe, which only Run calls, sees none of the
// fig15 and fig16 runs, nor the dry plan CheckScenario makes of a scenario
// with an impairment timeline.
func TestMicrobenchmarkRuntimeKnobs(t *testing.T) {
	var trace bytes.Buffer
	defer func(w io.Writer) { stderrLocked = w }(stderrLocked)
	stderrLocked = LockedWriter(&trace)
	var observed atomic.Int32
	cfg := testConfig()
	cfg.Observe = func(*netem.Network, *transport.Env, transport.Protocol) { observed.Add(1) }
	cfg.TraceFlow = 1
	fig16(cfg)
	if trace.Len() == 0 {
		t.Fatal("fig16 traced flow 1 but wrote no events")
	}
	for _, l := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		if !strings.Contains(l, "{flow=1 ") {
			t.Fatalf("trace line of another flow: %q", l)
		}
	}
	cfg.TraceFlow = 0
	fig15(cfg)
	tl, err := netem.ParseTimeline("blackhole", []byte("0s sw0->* blackhole"))
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{Topo: TopoMicro, Scheme: "xpass+aeolus", Impair: tl,
		Incast: &scenario.IncastSpec{Fanin: 2, MsgSize: 20_000}}
	if err := CheckScenario(cfg, &sc); err != nil {
		t.Fatal(err)
	}
	if n := observed.Load(); n != 0 {
		t.Errorf("Observe called %d times outside Run", n)
	}
}

// TestAuditCatchesInjectedLoss proves the auditor is live end-to-end: a
// fault-injection node silently discarding packets (no trace event, no
// drop counter) must surface as a conservation violation.
func TestAuditCatchesInjectedLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Audit = true
	scheme, err := MakeScheme(SchemeSpec{ID: "xpass+aeolus", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := ResolveTopo(TopoMicro)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.Build(scheme.Factory(netem.DefaultBuffer), netem.WireSizeFor(scheme.MSS), cfg.scheduler())
	// Sabotage one switch port behind the auditor's back: every packet on
	// the receiver downlink vanishes without a trace event or counter.
	net.Switches[0].Ports[0].Dst = dropAll{}
	a := audit.Attach(net)
	a.RegisterFlow(1, 3000)
	p := &netem.Packet{Type: netem.Data, Flow: 1, Src: 1, Dst: 0,
		PayloadLen: 1460, WireSize: 1538}
	net.Hosts[1].Send(p)
	net.Eng.Run()
	rep := a.Finish()
	if rep.Ok() {
		t.Fatal("silent packet loss produced a clean audit")
	}
	if err := rep.Err(); !strings.Contains(err.Error(), "residual: engine idle but 1460 payload bytes unaccounted") {
		t.Fatalf("silent loss reported as %v, want the lost 1460 payload bytes as residual", err)
	}
}

// dropAll silently swallows every packet delivered to it — the kind of
// accounting bug the audit layer exists to catch.
type dropAll struct{}

func (dropAll) Receive(*netem.Packet) {}

// TestShardedAuditCatchesPoolLeak is TestAuditCatchesInjectedLoss on two
// shards, through Run: a host downlink whose receiver swallows one delivery
// (no trace event, no counter, no return to the pool) must surface as
// pool-leak in the merged report. Each shard's pool trades packets with the
// other, so only the harness's cross-pool balance can see the leak.
func TestShardedAuditCatchesPoolLeak(t *testing.T) {
	cfg := shardDiffConfig()
	cfg.Shards = 2
	var sabotaged bool
	cfg.Observe = func(net *netem.Network, _ *transport.Env, _ transport.Protocol) {
		if !sabotaged {
			sabotaged = true
			pt := net.Switches[0].Ports[0]
			pt.Dst = &swallowOne{next: pt.Dst}
		}
	}
	spec := shardDiffSpec()
	spec.Flows = 60
	r := Run(cfg, spec)
	if r.Shards != 2 || r.Completed != r.Total {
		t.Fatalf("ran on %d shards and completed %d of %d flows, want 2 shards and every flow", r.Shards, r.Completed, r.Total)
	}
	if r.Audit == nil {
		t.Fatal("no audit report attached")
	}
	for _, v := range r.Audit.Violations {
		if v.Check == "pool-leak" && strings.Contains(v.Detail, fmt.Sprintf("got back %d", r.Audit.Pool.Gets-1)) {
			return
		}
	}
	t.Fatalf("a swallowed delivery on a sharded run was not reported as a one-packet pool-leak: %v", r.Audit.Err())
}

// swallowOne silently swallows the first packet delivered to it and hands
// every later one to next.
type swallowOne struct {
	next netem.Node
	done bool
}

func (s *swallowOne) Receive(p *netem.Packet) {
	if !s.done {
		s.done = true
		return
	}
	s.next.Receive(p)
}

// TestWindowGoodputIncastFallback is the regression for the steady-state
// goodput metric degenerating to zero on pure incast runs: simultaneous
// arrivals collapse the middle-half measurement window (last == first), so
// the metric must fall back to the arrival→drain span.
func TestWindowGoodputIncastFallback(t *testing.T) {
	r := Run(testConfig(), RunSpec{
		Scheme: SchemeSpec{ID: "xpass+aeolus", Seed: 3},
		Topo:   TopoMicro,
		Incast: &workload.IncastConfig{Fanin: 8, Receiver: 0, MsgSize: 100_000,
			Seed: 3, StartAt: sim.Time(10 * sim.Microsecond)},
		Deadline: sim.Duration(sim.Second),
	})
	if r.Completed != r.Total {
		t.Fatalf("incast incomplete: %d of %d", r.Completed, r.Total)
	}
	if r.WindowGoodput <= 0 {
		t.Fatalf("WindowGoodput = %v for pure incast, want positive fallback", r.WindowGoodput)
	}
	if r.WindowGoodput > 1 {
		t.Fatalf("WindowGoodput = %v exceeds capacity", r.WindowGoodput)
	}
}

// TestNDPSchemeGetsJumboBaseRTT checks the per-scheme serialization size
// flows into the derived base RTT: NDP's 9 KB frames must yield a larger
// base RTT than ExpressPass's 1538 B frames on the same topology.
func TestNDPSchemeGetsJumboBaseRTT(t *testing.T) {
	run := func(id string) RunResult {
		return Run(testConfig(), RunSpec{
			Scheme: SchemeSpec{ID: id, Seed: 3},
			Topo:   TopoMicro,
			Incast: &workload.IncastConfig{Fanin: 2, Receiver: 0, MsgSize: 20_000,
				Seed: 3, StartAt: sim.Time(10 * sim.Microsecond)},
			Deadline: sim.Duration(sim.Second),
		})
	}
	ndpRTT := run("ndp").baseRTT
	xpassRTT := run("xpass").baseRTT
	if ndpRTT <= xpassRTT {
		t.Fatalf("NDP base RTT %v not above ExpressPass %v on the same fabric", ndpRTT, xpassRTT)
	}
}
