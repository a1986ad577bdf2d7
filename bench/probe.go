package bench

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// Counters are the layer counts of one rep, summed over its simulation runs.
// They are read after each run from the objects the Config.Observe hook
// handed over, so they cover exactly the runs that go through
// experiments.Run (fig15 and fig16 drive the engine themselves and are not
// counted). All of them repeat exactly for a given seed.
type Counters struct {
	Runs int `json:"runs"`

	Events       uint64  `json:"events"`        // engine events fired, all shards
	SimUS        float64 `json:"sim_us"`        // Σ over runs of the final simulated time
	PeakPending  int     `json:"peak_pending"`  // max over runs of the summed shard peaks
	PeakOverflow int     `json:"peak_overflow"` // same, for the wheel's overflow list
	EventSlots   uint64  `json:"event_slots"`   // event slab slots ever carved
	Imbalance    float64 `json:"shard_imbalance"`

	TxPkts       uint64                       `json:"tx_pkts"`
	PktGets      uint64                       `json:"pkt_gets"`
	PktAllocated uint64                       `json:"pkt_allocated"`
	Drops        [netem.NumDropReasons]uint64 `json:"drops"`
	Sent         int64                        `json:"sent_payload"`
	Delivered    int64                        `json:"delivered_payload"`
	TimeoutFlows int                          `json:"timeout_flows"`
	State        transport.Footprint          `json:"state"`
	AuditEvents  uint64                       `json:"audit_events"`

	records [][]stats.FlowRecord // kept for the traced stats.Summarize call
}

// capture is everything one run exposed through Observe: one call per engine,
// so a sharded run contributes one entry per shard. The shard views share the
// fabric, so the ports are read once, from the first view.
type capture struct {
	net     *netem.Network
	engines []*sim.Engine
	pools   []*netem.PacketPool
	envs    []*transport.Env
	protos  []transport.Protocol
}

// probe collects the runs a workload starts. Observe runs on the experiment
// pool's workers, so every field is guarded by mu.
type probe struct {
	mu    sync.Mutex
	runs  map[*netem.Host]*capture // keyed by the run's first host, shared by its shard views
	first time.Time                // first Observe callback since the last fold
	keep  bool                     // keep flow records for the traced calls
}

func newProbe(keepRecords bool) *probe {
	return &probe{runs: make(map[*netem.Host]*capture), keep: keepRecords}
}

// observe is the Config.Observe hook.
func (p *probe) observe(net *netem.Network, env *transport.Env, proto transport.Protocol) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.first.IsZero() {
		p.first = now
	}
	c := p.runs[net.Hosts[0]]
	if c == nil {
		c = &capture{net: net}
		p.runs[net.Hosts[0]] = c
	}
	c.engines = append(c.engines, env.Eng)
	c.pools = append(c.pools, net.Pool)
	c.envs = append(c.envs, env)
	c.protos = append(c.protos, proto)
}

// firstObserve returns the time of the first Observe callback since the last
// fold, or the zero time if there was none.
func (p *probe) firstObserve() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

// fold adds the counters of every run captured since the last fold into c
// and drops the runs. Until then the captured runs stay reachable, so on
// paper-quick, which folds once per experiment, the heap peak includes the
// finished runs of the experiment in progress.
func (p *probe) fold(c *Counters) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.runs {
		c.Runs++
		var end sim.Time
		var pending, overflow int
		var maxFired, sumFired uint64
		for _, e := range r.engines {
			f := e.Fired()
			c.Events += f
			sumFired += f
			maxFired = max(maxFired, f)
			end = max(end, e.Now())
			ss := e.SchedStats()
			pending += ss.PeakPending
			overflow += ss.PeakOverflow
			c.EventSlots += e.EventAllocs()
		}
		c.SimUS += end.Microseconds()
		c.PeakPending = max(c.PeakPending, pending)
		c.PeakOverflow = max(c.PeakOverflow, overflow)
		if sumFired > 0 {
			mean := float64(sumFired) / float64(len(r.engines))
			c.Imbalance = max(c.Imbalance, float64(maxFired)/mean)
		}
		for _, pp := range r.pools {
			st := pp.Stats()
			c.PktGets += st.Gets
			c.PktAllocated += st.Allocated
		}
		for _, pt := range r.net.AllPorts() {
			c.TxPkts += pt.TxPackets
		}
		for i, d := range netem.DropTotals(r.net.SwitchPorts()) {
			c.Drops[i] += d
		}
		for _, env := range r.envs {
			c.Sent += env.Meter.SentPayload
			c.Delivered += env.Meter.DeliveredPayload
			c.TimeoutFlows += env.FCT.TimeoutFlows()
			if p.keep {
				c.records = append(c.records, env.FCT.Records())
			}
		}
		for _, pr := range r.protos {
			if fr, ok := pr.(transport.FootprintReporter); ok {
				fp := fr.Footprint()
				c.State.Flows += fp.Flows
				c.State.Senders += fp.Senders
				c.State.Receivers += fp.Receivers
			}
		}
	}
	clear(p.runs)
	p.first = time.Time{}
}

// heapSampler tracks the peak of live heap objects from a background
// goroutine. It reads runtime/metrics, which does not stop the world the way
// runtime.ReadMemStats does.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		for {
			select {
			case <-tick.C:
				read()
			case <-s.quit:
				read()
				s.peak <- peak
				return
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler to exit and returns the peak.
func (s *heapSampler) stop() uint64 {
	close(s.quit)
	return <-s.peak
}

// runtimeStats is a snapshot of the cumulative runtime counters a rep reports
// as differences.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64 // runtime's own CPU-time estimates
	cpu                                float64 // user+system CPU seconds from getrusage
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeStats{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
		cpu:          tv(ru.Utime) + tv(ru.Stime),
	}
}

// vmHWM returns the process's peak resident set in bytes from
// /proc/self/status, or 0 where that file or field does not exist.
func vmHWM() uint64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseUint(fields[0], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
