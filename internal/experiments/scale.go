package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/transport/rdbase"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// The scale sweep (ROADMAP "paper-scale and beyond") answers the question the
// paper's fixed 64..192-host fabrics cannot: how does the simulator itself
// hold up as the fabric grows — events per wall-clock second, scheduler
// pressure (peak pending events, timing-wheel overflow spill), heap and RSS
// high-water marks, and the per-flow state the transports retain. Each cell
// is one open-loop run: an n-leaf/n-spine non-blocking Clos (n² hosts) under
// a Poisson WebServer workload at a fixed per-host flow count, so offered
// work scales linearly with the host count and cells are comparable across
// fabric sizes.
//
// Unlike every other experiment, the sweep runs its cells serially and owns
// the whole process while doing so: wall-clock throughput, sampled heap peaks
// and the kernel's VmHWM are process-wide measurements that concurrent runs
// would corrupt. Cells run smallest fabric first so the monotone RSS
// high-water mark still says something about the small cells.

// ScaleFlowsPerHost is the open-loop offered work per host: every cell runs
// hosts × ScaleFlowsPerHost Poisson flows, keeping per-host load identical
// across fabric sizes.
const ScaleFlowsPerHost = 100

// scaleLoads is the core-load grid of the sweep.
var scaleLoads = []float64{0.4, 0.8}

// scaleWidths returns the leaf/spine widths of the sweep grid (n² hosts):
// 64, 256 and 1024 hosts, trimmed to 64 and 256 under -quick.
func scaleWidths(quick bool) []int {
	if quick {
		return []int{8, 16}
	}
	return []int{8, 16, 32}
}

// ScaleFabric returns the sweep's fabric at width n: an n-leaf/n-spine
// non-blocking Clos with n hosts per leaf (n² hosts total), the leafspine
// catalogue geometry scaled out. 100G links, 500ns per-hop delay.
func ScaleFabric(n int) netem.TopoSpec {
	return netem.TopoSpec{
		HostsPerEdge: n,
		Tiers:        []netem.TierSpec{{Switches: n}, {Switches: n}},
		HostRate:     100 * sim.Gbps,
		LinkDelay:    500 * sim.Nanosecond,
	}
}

// ScalePoint is one measured cell of the sweep — the record BENCH_scale.json
// stores and the smoke gates compare against.
type ScalePoint struct {
	Topo  string  `json:"topo"`
	Hosts int     `json:"hosts"`
	Load  float64 `json:"load"`
	Flows int     `json:"flows"`

	// Execution shape: how many spatial shards the run actually used (1 =
	// the sequential engine) and the GOMAXPROCS it ran under — without both,
	// events/sec numbers from sharded and sequential runs are not comparable.
	Shards     int `json:"shards,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	Completed    int     `json:"completed"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Slab geometry the cell was measured under. Chunk sizes change cache
	// behavior and the retained heap (the flow-table chunk moves
	// state_bytes_per_flow directly), so cells measured under different
	// geometry are not directly comparable; stamping them keeps old baseline
	// cells honest. Zero in cells recorded before the geometry was stamped.
	EventChunk  int `json:"event_chunk,omitempty"`
	PacketChunk int `json:"packet_chunk,omitempty"`
	FlowChunk   int `json:"flow_chunk,omitempty"`

	// Scheduler pressure: the engine's peak simultaneous pending events and,
	// for the timing wheel, the peak population of the far-future overflow
	// list (see sim.SchedStats).
	PeakPending  int `json:"peak_pending"`
	PeakOverflow int `json:"peak_overflow"`

	// HeapPeakBytes is the maximum live-heap size sampled during the run;
	// RSSPeakBytes is the kernel's VmHWM — process-wide and monotone, so only
	// the first (smallest) cells bound their own fabric (0 where /proc is
	// unavailable).
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`
	RSSPeakBytes  uint64 `json:"rss_peak_bytes"`

	// StateBytesPerFlow is the retained heap growth across the run divided by
	// the flow count — the per-flow footprint of transport tables, FCT
	// records and trace, measured after a settling GC. The transport's own
	// resident-object counts come from transport.FootprintReporter.
	StateBytesPerFlow float64 `json:"state_bytes_per_flow"`
	StateFlows        int     `json:"state_flows"`
	StateSenders      int     `json:"state_senders"`
	StateReceivers    int     `json:"state_receivers"`

	AuditClean bool `json:"audit_clean"`
}

// recompute derives events_per_sec from the summed event count over the wall
// time. Events is already the total across every shard engine (Run sums
// Fired() before it reaches the point), so this single division is the only
// one in the pipeline: no per-shard or per-cell float quotient is ever carried
// into an aggregate, and a ledger merge can restamp the field from its inputs.
func (p *ScalePoint) recompute() {
	if p.WallSeconds > 0 {
		p.EventsPerSec = float64(p.Events) / p.WallSeconds
	}
}

// Key is the ledger key of the cell, e.g. "h1024/l0.8" — with a "/s4" suffix
// when the cell ran sharded, so sharded and sequential measurements of the
// same (hosts, load) coexist in one ledger and ratio cleanly.
func (p ScalePoint) Key() string {
	k := fmt.Sprintf("h%d/l%g", p.Hosts, p.Load)
	if p.Shards > 1 {
		k += fmt.Sprintf("/s%d", p.Shards)
	}
	return k
}

// ScaleScenario declares one sweep cell: the scaled Clos at the given width,
// a Poisson WebServer workload at the given core load, and an explicit flow
// count (hosts × ScaleFlowsPerHost) so the offered work is open-loop rather
// than budget-derived.
func ScaleScenario(cfg Config, width int, load float64) scenario.Scenario {
	spec := ScaleFabric(width)
	return scenario.Scenario{
		Topo:       spec.String(),
		Scheme:     "xpass+aeolus",
		Seed:       cfg.Seed,
		SchemeSeed: cfg.Seed,
		Workload:   &scenario.WorkloadSpec{Name: workload.WebServer.Name()},
		CoreLoad:   load,
		Flows:      spec.Hosts() * ScaleFlowsPerHost,
	}
}

// ScaleScenarios declares the full (width × load) grid, smallest first.
func ScaleScenarios(cfg Config) []scenario.Scenario {
	var scns []scenario.Scenario
	for _, n := range scaleWidths(cfg.Quick) {
		for _, load := range scaleLoads {
			scns = append(scns, ScaleScenario(cfg, n, load))
		}
	}
	return scns
}

// MeasureScale runs one sweep cell and returns its measurements. The scheme
// is ExpressPass+Aeolus — the paper's primary integration and the cheapest of
// the three transports per packet, so the sweep stresses the simulator rather
// than one transport's scheduling policy.
func MeasureScale(cfg Config, width int, load float64) ScalePoint {
	sem, rspec := mustFromScenario(ScaleScenario(cfg, width, load))
	pt := ScalePoint{Topo: rspec.Topo, Hosts: ScaleFabric(width).Hosts(), Load: load}
	pt.Flows = rspec.Flows

	// Observe fires once per shard engine, so the heap baseline is taken on
	// the first call only and the transport footprints are summed across all
	// protocol instances.
	var protos []transport.Protocol
	var heapStart uint64
	seenBaseline := false
	run := cfg.ForScenario(sem)
	run.Audit = true
	run.Observe = func(_ *netem.Network, _ *transport.Env, p transport.Protocol) {
		protos = append(protos, p)
		if !seenBaseline {
			seenBaseline = true
			heapStart = heapSettled()
		}
	}

	sampler := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	res := Run(run, rspec)
	pt.WallSeconds = time.Since(start).Seconds()
	sampled := sampler.stop()
	heapEnd := heapSettled()

	pt.Completed = res.Completed
	pt.Events = res.Events
	pt.Shards = res.Shards
	pt.GOMAXPROCS = runtime.GOMAXPROCS(0)
	pt.EventChunk = sim.EventChunkSize
	pt.PacketChunk = netem.PacketChunkSize
	pt.FlowChunk = rdbase.FlowChunkSize
	pt.recompute()
	pt.PeakPending, pt.PeakOverflow = res.Sched.PeakPending, res.Sched.PeakOverflow
	pt.HeapPeakBytes = max(sampled, heapEnd)
	pt.RSSPeakBytes = vmHWMBytes()
	if heapEnd > heapStart && pt.Flows > 0 {
		pt.StateBytesPerFlow = float64(heapEnd-heapStart) / float64(pt.Flows)
	}
	for _, p := range protos {
		if fr, ok := p.(transport.FootprintReporter); ok {
			fp := fr.Footprint()
			pt.StateFlows += fp.Flows
			pt.StateSenders += fp.Senders
			pt.StateReceivers += fp.Receivers
		}
	}
	pt.AuditClean = res.Audit != nil && res.Audit.Ok()
	return pt
}

// ScaleSweep is the "scale" registry entry: the full grid, serially,
// smallest fabric first, one table row per cell.
func ScaleSweep(cfg Config) []Table {
	points := RunScaleGrid(cfg)
	t := Table{ID: "scale",
		Title: "Open-loop scale sweep: simulator throughput and memory vs fabric size (WebServer, xpass+aeolus)",
		Columns: []string{"hosts", "load", "shards", "flows", "completed", "events", "wall/s",
			"events/s", "peakPending", "peakOverflow", "heapPeak/MB", "state/flow", "audit"}}
	for _, p := range points {
		t.Add(fmt.Sprint(p.Hosts), fmt.Sprintf("%g", p.Load), fmt.Sprint(max(p.Shards, 1)), fmt.Sprint(p.Flows),
			fmt.Sprintf("%d/%d", p.Completed, p.Flows), fmt.Sprint(p.Events),
			f2(p.WallSeconds), fmt.Sprintf("%.3g", p.EventsPerSec),
			fmt.Sprint(p.PeakPending), fmt.Sprint(p.PeakOverflow),
			f1(float64(p.HeapPeakBytes)/(1<<20)), f1(p.StateBytesPerFlow),
			auditMark(p.AuditClean))
	}
	return []Table{t}
}

// RunScaleGrid measures every cell of the (width, load) grid in order —
// smallest first — reporting per-cell completion through cfg.Progress.
func RunScaleGrid(cfg Config) []ScalePoint {
	widths := scaleWidths(cfg.Quick)
	total := len(widths) * len(scaleLoads)
	start := time.Now()
	points := make([]ScalePoint, 0, total)
	for _, n := range widths {
		for _, load := range scaleLoads {
			points = append(points, MeasureScale(cfg, n, load))
			if cfg.Progress != nil {
				cfg.Progress(len(points), total, time.Since(start))
			}
		}
	}
	return points
}

func auditMark(clean bool) string {
	if clean {
		return "clean"
	}
	return "VIOLATED"
}

// heapSettled returns the live heap after a full GC — the retained-state
// measurement points on either side of a run.
func heapSettled() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapSampler polls the live heap from a background goroutine while a run
// executes on the calling goroutine, tracking the high-water mark. It samples
// wall-clock time rather than scheduling engine events: an engine-driven
// sampler would keep the event queue nonempty and stall the post-run audit
// drain, and would perturb the very peak-pending statistic being measured.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		var m runtime.MemStats
		var peak uint64
		for {
			select {
			case <-tick.C:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
			case <-s.quit:
				s.peak <- peak
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the observed heap high-water mark.
func (s *heapSampler) stop() uint64 {
	close(s.quit)
	return <-s.peak
}

// vmHWMBytes reads the process's peak resident set (VmHWM) from
// /proc/self/status, returning 0 where the file or field is unavailable.
func vmHWMBytes() uint64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// ScaleLedger is the BENCH_scale.json layout, mirroring cmd/benchjson: a
// frozen baseline section committed with the repo plus the latest run, so
// scale regressions stay visible against the reference numbers.
type ScaleLedger struct {
	Note     string                `json:"note,omitempty"`
	Baseline map[string]ScalePoint `json:"baseline,omitempty"`
	Current  map[string]ScalePoint `json:"current"`
}

// LoadScaleLedger reads a ledger file.
func LoadScaleLedger(path string) (ScaleLedger, error) {
	var led ScaleLedger
	buf, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(buf, &led); err != nil {
		return led, fmt.Errorf("experiments: unparsable ledger %s: %w", path, err)
	}
	return led, nil
}

// WriteScaleLedger merges the points into the ledger's current section by
// cell key, preserving an existing file's note, baseline and any current cells
// not re-measured this run — so a sharded sweep can land next to the
// sequential cells instead of erasing them. The first write seeds the
// baseline, and committing it freezes the reference.
func WriteScaleLedger(path, note string, points []ScalePoint) error {
	led, err := LoadScaleLedger(path)
	if err != nil {
		led = ScaleLedger{}
	}
	if led.Note == "" {
		led.Note = note
	}
	if led.Current == nil {
		led.Current = make(map[string]ScalePoint, len(points))
	}
	for _, p := range points {
		// Restamp throughput from the summed events over wall time so the
		// stored figure is always the quotient of its stored inputs, whatever
		// float the caller carried.
		p.recompute()
		led.Current[p.Key()] = p
	}
	if led.Baseline == nil {
		led.Baseline = led.Current
	}
	buf, err := json.MarshalIndent(&led, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
