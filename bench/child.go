package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Output is one checked result of a rep: the SHA-256 of an experiment's
// rendered tables, or RunResult.Digest of one run.
type Output struct {
	Key      string `json:"key"`
	Digest   string `json:"digest"`
	Flows    int    `json:"flows"`    // flows in the run's trace (RunResult.Total); 0 for an experiment
	Complete bool   `json:"complete"` // every flow of the run finished
	AuditOK  bool   `json:"audit_ok"` // no conservation violation (true when not audited)
	// InputOK is false when a traced rep regenerated the run's trace apart
	// from the run and got another flow count: the timed calls then no longer
	// time the inputs the workload runs.
	InputOK bool `json:"input_ok"`
}

// Rep is what one child process measured over one run of a workload's plan.
type Rep struct {
	Workload   string  `json:"workload"`
	Tiny       bool    `json:"tiny,omitempty"`
	Audit      bool    `json:"audit"`
	Traced     bool    `json:"traced"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`
	SetupS     float64 `json:"setup_s"`
	CPUS       float64 `json:"cpu_s"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
	RSSPeakMB  float64 `json:"rss_peak_mb"`
	AllocMB    float64 `json:"alloc_mb"`
	GCFrac     float64 `json:"gc_frac"`
	GCCycles   uint64  `json:"gc_cycles"`
	Mallocs    uint64  `json:"mallocs"`

	Counters Counters           `json:"counters"`
	ExpWallS map[string]float64 `json:"exp_wall_s,omitempty"`
	// CallS holds the separately timed public calls of a traced rep, keyed by
	// per-layer metric name (netem.build_s, workload.generate_s, ...).
	CallS   map[string]float64 `json:"call_s,omitempty"`
	Outputs []Output           `json:"outputs"`
	Spans   []Span             `json:"spans,omitempty"`
}

const mib = 1 << 20

// ChildMain is the entry point of a rep's child process: it parses the child
// flags from args, runs one rep and writes the Rep as one JSON line to
// stdout. It returns the process exit code.
func ChildMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("aeolusperf child", flag.ContinueOnError)
	name := fs.String("child", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed")
	tiny := fs.Bool("tiny", false, "run the workload at its smoke-test size")
	audit := fs.Bool("audit", false, "run with the conservation auditor on")
	cpuprofile := fs.String("cpuprofile", "", "trace the rep: write a CPU profile here and record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := WorkloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep, err := runRep(w, *seed, *tiny, *audit, *cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// auditCheck reports whether the workload runs unaudited and so gets one
// audited check rep, which measures the auditor's overhead.
func (w Workload) auditCheck() bool {
	p := w.plan(1, true)
	return p.experiments == nil && !p.cfg.Audit
}

func runRep(w Workload, seed uint64, tiny, audit bool, cpuprofile string) (*Rep, error) {
	p := w.plan(seed, tiny)
	p.cfg.Audit = p.cfg.Audit || audit
	traced := cpuprofile != ""
	rep := &Rep{Workload: w.Name, Tiny: tiny, Audit: p.cfg.Audit, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0)}
	log := newSpanLog()
	pr := newProbe(traced)
	var prof *os.File
	if traced {
		var err error
		if prof, err = os.Create(cpuprofile); err != nil {
			return nil, err
		}
		defer prof.Close() // error paths only; the success path checks Close
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}

	root := log.begin("workload", 0, map[string]any{"workload": w.Name, "seed": seed})
	r0 := readRuntime()
	sampler := startHeapSampler(10 * time.Millisecond)
	start := time.Now()
	var err error
	if p.experiments != nil {
		err = runExperiments(rep, p, pr, log, root)
	} else {
		err = runScenarios(rep, p, pr, log, root)
	}
	rep.WallS = time.Since(start).Seconds()
	heapPeak := sampler.stop()
	r1 := readRuntime()
	log.end(root)
	if traced {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}

	rep.HeapPeakMB = float64(heapPeak) / mib
	rep.RSSPeakMB = float64(vmHWM()) / mib
	rep.AllocMB = float64(r1.allocBytes-r0.allocBytes) / mib
	rep.Mallocs = r1.allocObjects - r0.allocObjects
	rep.GCCycles = r1.gcCycles - r0.gcCycles
	rep.CPUS = r1.cpu - r0.cpu
	if d := r1.totalCPU - r0.totalCPU; d > 0 {
		rep.GCFrac = (r1.gcCPU - r0.gcCPU) / d
	}
	if traced {
		var genFlows []int
		if rep.CallS, genFlows, err = timedCalls(p, rep.Counters.records, log); err != nil {
			return nil, err
		}
		// A scenario workload's outputs line up with its scenarios.
		if p.experiments == nil {
			for i := range rep.Outputs {
				rep.Outputs[i].InputOK = genFlows[i] == rep.Outputs[i].Flows
			}
		}
	}
	rep.Spans = log.spans
	return rep, nil
}

// outputKey names a checked output: workload/item, marked when audited (an
// audited run drains the engine after the last flow, so its digest differs)
// and when run at the smoke-test size.
func outputKey(rep *Rep, item string) string {
	k := rep.Workload + "/" + item
	if rep.Audit {
		k += "/audit"
	}
	if rep.Tiny {
		k = "tiny/" + k
	}
	return k
}

// runScenarios runs the plan's scenarios one after another through
// experiments.Run. Set-up is the time from the call into Run to the run's
// first Observe callback: everything before the first simulated event.
func runScenarios(rep *Rep, p plan, pr *probe, log *spanLog, root int) error {
	for i := range p.scenarios {
		sc := &p.scenarios[i]
		sem, spec, err := experiments.FromScenario(sc)
		if err != nil {
			return err
		}
		cfg := p.cfg.ForScenario(sem)
		cfg.Observe = pr.observe
		span := log.begin("run", root, map[string]any{"scheme": sc.Scheme, "topo": sc.Topo, "flows": sc.Flows})
		start := time.Now()
		res := experiments.Run(cfg, spec)
		end := time.Now()
		setupEnd := pr.firstObserve()
		log.add("setup", span, start, setupEnd, nil)
		log.add("simulate", span, setupEnd, end, nil)
		log.end(span)
		rep.SetupS += setupEnd.Sub(start).Seconds()
		pr.fold(&rep.Counters)

		out := Output{Key: outputKey(rep, sc.Scheme), Digest: res.Digest(), Flows: res.Total,
			Complete: res.Completed == res.Total, AuditOK: true, InputOK: true}
		if res.Audit != nil {
			out.AuditOK = res.Audit.Ok()
			rep.Counters.AuditEvents += res.Audit.Events
		}
		rep.Outputs = append(rep.Outputs, out)
	}
	return nil
}

// runExperiments regenerates the plan's registry experiments through
// Experiment.Fn. Set-up is the time from the Fn call to its first Observe
// callback; fig2 (analytic) and fig15/fig16 (which drive the engine
// themselves) have none. The checked output is the SHA-256 of the rendered
// tables.
func runExperiments(rep *Rep, p plan, pr *probe, log *spanLog, root int) error {
	rep.ExpWallS = make(map[string]float64, len(p.experiments))
	for _, id := range p.experiments {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		cfg := p.cfg
		cfg.Observe = pr.observe
		span := log.begin("experiment", root, map[string]any{"id": id})
		start := time.Now()
		tables := e.Fn(cfg)
		end := time.Now()
		if first := pr.firstObserve(); !first.IsZero() {
			log.add("setup", span, start, first, nil)
			log.add("simulate", span, first, end, nil)
			rep.SetupS += first.Sub(start).Seconds()
		}
		log.end(span)
		rep.ExpWallS[id] = end.Sub(start).Seconds()
		pr.fold(&rep.Counters)

		h := sha256.New()
		for i := range tables {
			tables[i].Fprint(h)
		}
		rep.Outputs = append(rep.Outputs, Output{Key: outputKey(rep, id),
			Digest: hex.EncodeToString(h.Sum(nil)), Complete: true, AuditOK: true, InputOK: true})
	}
	return nil
}

// timedCalls times, apart from the workload, the public calls that build a
// run's inputs and summarize its output, on the workload's own inputs:
// scenario lowering, topology construction and Poisson trace generation for
// every scenario the workload declares, and FCT summaries over every run's
// records. Each call kind becomes one root span. It also returns the flow
// count of each scenario's generated trace, 0 for one without a Poisson
// workload, in the order of the plan's scenarios.
func timedCalls(p plan, records [][]stats.FlowRecord, log *spanLog) (map[string]float64, []int, error) {
	scns := p.scenarios
	for _, id := range p.experiments {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		if e.Scenarios != nil {
			scns = append(scns, e.Scenarios(p.cfg)...)
		}
	}
	calls := make(map[string]float64, 4)
	timed := func(name string, n int, fn func(i int) error) error {
		var busy time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			if err := fn(i); err != nil {
				return err
			}
			busy += time.Since(t)
		}
		log.add(name, 0, start, time.Now(), map[string]any{"calls": n})
		calls[name+"_s"] = busy.Seconds()
		return nil
	}

	sems := make([]experiments.Config, len(scns))
	specs := make([]experiments.RunSpec, len(scns))
	err := timed("scenario.lower", len(scns), func(i int) (err error) {
		sems[i], specs[i], err = experiments.FromScenario(&scns[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	topos := make([]experiments.TopoDef, len(specs))
	schemes := make([]experiments.Scheme, len(specs))
	for i, spec := range specs {
		if topos[i], err = experiments.ResolveTopo(spec.Topo); err != nil {
			return nil, nil, err
		}
		if schemes[i], err = experiments.MakeScheme(spec.Scheme); err != nil {
			return nil, nil, err
		}
	}
	err = timed("netem.build", len(specs), func(i int) error {
		buffer := specs[i].Buffer
		if buffer <= 0 {
			buffer = netem.DefaultBuffer
		}
		topos[i].Build(schemes[i].Factory(buffer), netem.WireSizeFor(schemes[i].MSS), sim.DefaultScheduler)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var gens []workload.PoissonConfig
	var genOf []int // the spec each generator belongs to
	for i, spec := range specs {
		if spec.Workload == nil {
			continue
		}
		gens = append(gens, workload.PoissonConfig{
			CDF: spec.Workload, Hosts: topos[i].Hosts(), HostRate: topos[i].Spec.HostRate,
			Load: topos[i].EdgeLoad(spec.CoreLoad), Flows: flowCount(sems[i], spec),
			Seed: sems[i].Seed ^ spec.Scheme.Seed, StartAt: sim.Time(10 * sim.Microsecond),
		})
		genOf = append(genOf, i)
	}
	flows := make([]int, len(specs))
	err = timed("workload.generate", len(gens), func(i int) error {
		flows[genOf[i]] = len(gens[i].Generate())
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := timed("stats.summarize", len(records), func(i int) error { stats.Summarize(records[i]); return nil }); err != nil {
		return nil, nil, err
	}
	return calls, flows[:len(p.scenarios)], nil
}

// flowCount is the Poisson flow count experiments.Run derives for a spec:
// the explicit count, or the byte budget over the workload's mean flow size
// clamped to the config's bounds.
func flowCount(cfg experiments.Config, spec experiments.RunSpec) int {
	if spec.Flows > 0 {
		return spec.Flows
	}
	n := int(float64(cfg.Budget) / spec.Workload.Mean())
	return min(max(n, cfg.MinFlows), cfg.MaxFlows)
}
