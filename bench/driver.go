package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Runner runs reps, each in a fresh child process, so every rep starts with
// a clean heap, GC state and resident-set high-water mark. The load is a
// closed loop: one rep at a time, and within a rep at most two worker
// goroutines (paper-quick's pool, scale-h256-s2's shards).
type Runner struct {
	Exe  string // binary re-executed with -child for each rep
	Tiny bool   // run the workloads at their smoke-test size
}

// Result gathers the reps of one workload at one seed.
type Result struct {
	Workload Workload
	Seed     uint64
	Timed    []*Rep   // untraced reps: the end-to-end samples
	Traced   []*Rep   // reps run with the CPU profiler and spans
	Check    *Rep     // the audited check rep of an unaudited workload
	Prof     *Profile // the traced reps' folded CPU profile
	checks   *checker
}

func newResult(w Workload, seed uint64) *Result {
	return &Result{Workload: w, Seed: seed, checks: newChecker(seed)}
}

// Attempted and Failed count the output checks over every rep of the result.
func (res *Result) Attempted() int { return res.checks.attempted }
func (res *Result) Failed() int    { return res.checks.failed }

// Problems describes each failed check.
func (res *Result) Problems() []string { return res.checks.problems }

// rep runs one rep of res's workload in a child process and files it. A
// traced rep writes its CPU profile to cpuprofile.
func (r *Runner) rep(ctx context.Context, res *Result, audit bool, cpuprofile string) error {
	args := []string{"-child", res.Workload.Name, "-seed", strconv.FormatUint(res.Seed, 10)}
	if r.Tiny {
		args = append(args, "-tiny")
	}
	if audit {
		args = append(args, "-audit")
	}
	if cpuprofile != "" {
		args = append(args, "-cpuprofile", cpuprofile)
	}
	cmd := exec.CommandContext(ctx, r.Exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s rep: %w", res.Workload.Name, err)
	}
	var rep Rep
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return fmt.Errorf("%s rep: bad child output: %w", res.Workload.Name, err)
	}
	res.checks.check(&rep)
	switch {
	case rep.Traced:
		res.Traced = append(res.Traced, &rep)
	case audit:
		res.Check = &rep
	default:
		res.Timed = append(res.Timed, &rep)
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// A measured run takes at least these reps, whatever its duration: minTimed
// timed reps without tracing, and minTracedTimed timed plus minTraced traced
// reps with it.
const (
	minTimed       = 3
	minTracedTimed = 2
	minTraced      = 1
)

// Measure runs reps of one workload until the next rep would end past the
// given duration. Without a trace directory every rep is timed. With one, an
// unaudited workload starts with its audited check rep, inside the duration,
// and then timed and traced reps alternate, so both see the same host drift.
func (r *Runner) Measure(ctx context.Context, w Workload, seed uint64, d time.Duration, traceDir string) (*Result, error) {
	res := newResult(w, seed)
	start := time.Now()
	wantTimed := minTimed
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		wantTimed = minTracedTimed
		if w.auditCheck() {
			if err := r.rep(ctx, res, true, ""); err != nil {
				return nil, err
			}
		}
	}
	var profiles []string
	var took []float64
	for i := 0; ; i++ {
		t := time.Now()
		prof := ""
		if traceDir != "" && i%2 == 1 {
			prof = filepath.Join(traceDir, fmt.Sprintf("rep-%d.pprof", i))
			profiles = append(profiles, prof)
		}
		if err := r.rep(ctx, res, false, prof); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t).Seconds())
		enough := len(res.Timed) >= wantTimed && (traceDir == "" || len(res.Traced) >= minTraced)
		next := time.Duration(median(took) * float64(time.Second))
		if enough && time.Since(start)+next > d {
			break
		}
	}
	if traceDir == "" {
		return res, nil
	}
	return res, finishTrace(ctx, res, traceDir, profiles)
}

// Set runs reps of every workload round-robin (rep 1 of each, then rep 2,
// ...), so host drift hits all workloads alike. Then each unaudited workload
// gets one audited check rep and, with a trace directory, one traced rep,
// written under traceDir/<workload>.
func (r *Runner) Set(ctx context.Context, seed uint64, reps int, traceDir string) ([]*Result, error) {
	results := make([]*Result, len(Workloads))
	for i, w := range Workloads {
		results[i] = newResult(w, seed)
	}
	for i := 0; i < reps; i++ {
		for _, res := range results {
			if err := r.rep(ctx, res, false, ""); err != nil {
				return nil, err
			}
		}
	}
	for _, res := range results {
		if res.Workload.auditCheck() {
			if err := r.rep(ctx, res, true, ""); err != nil {
				return nil, err
			}
		}
		if traceDir == "" {
			continue
		}
		dir := filepath.Join(traceDir, res.Workload.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		prof := filepath.Join(dir, "rep-0.pprof")
		if err := r.rep(ctx, res, false, prof); err != nil {
			return nil, err
		}
		if err := finishTrace(ctx, res, dir, []string{prof}); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// finishTrace writes a workload's traced output to dir: the traced reps'
// spans in spans.jsonl, their CPU profiles merged into cpu.pprof, and the
// folded profile in layers.json.
func finishTrace(ctx context.Context, res *Result, dir string, profiles []string) error {
	prof, err := foldProfiles(ctx, profiles, filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	res.Prof = prof
	for _, p := range profiles {
		if err := os.Remove(p); err != nil {
			return err
		}
	}

	var spans bytes.Buffer
	offset := 0
	for i, rep := range res.Traced {
		for j := range rep.Spans {
			if rep.Spans[j].Parent == 0 {
				if rep.Spans[j].Attrs == nil {
					rep.Spans[j].Attrs = map[string]any{}
				}
				rep.Spans[j].Attrs["rep"] = i
			}
		}
		if err := writeSpans(&spans, rep.Spans, offset); err != nil {
			return err
		}
		offset += len(rep.Spans)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.jsonl"), spans.Bytes(), 0o644); err != nil {
		return err
	}
	shares := make(map[string]float64, len(prof.Layers))
	for l := range prof.Layers {
		shares[l] = prof.Share(l)
	}
	layers, err := json.MarshalIndent(map[string]any{
		"workload": res.Workload.Name, "samples": prof.Samples,
		"layer_samples": prof.Layers, "shares": shares,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(layers, '\n'), 0o644)
}

// EndToEnd summarizes the timed reps per end-to-end metric.
func (res *Result) EndToEnd() map[string]Summary {
	out := make(map[string]Summary, len(EndToEnd))
	for _, m := range EndToEnd {
		out[m.Name] = summarize(m.Unit, values(res.Timed, m.of))
	}
	return out
}

// PerLayer computes every per-layer metric.
func (res *Result) PerLayer() map[string]float64 {
	in := &layerInput{timed: res.Timed, traced: res.Traced, check: res.Check, prof: res.Prof}
	out := make(map[string]float64, len(PerLayer))
	for _, m := range PerLayer {
		out[m.Name] = m.of(in)
	}
	return out
}

// ResultLine is the one-line JSON result of a measured run: the end-to-end
// medians, or with traced the per-layer metrics, and the check counts.
func (res *Result) ResultLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		vals := res.PerLayer()
		for _, m := range PerLayer {
			metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
	} else {
		for name, s := range res.EndToEnd() {
			metrics[name] = value{s.Median, s.Unit}
		}
	}
	return json.Marshal(map[string]any{
		"correct":   res.Failed() == 0,
		"attempted": res.Attempted(),
		"failed":    res.Failed(),
		"metrics":   metrics,
	})
}
