package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Profile is a CPU profile folded into layers: each sample is charged to the
// innermost frame in one of the repository's internal packages, so standard
// library and runtime work (allocation, GC assists, map lookups) counts
// against the layer that caused it. Samples with no such frame go to
// runtime.gc when a garbage-collector worker took them and to runtime.other
// otherwise.
type Profile struct {
	Samples float64            `json:"samples"`
	Layers  map[string]float64 `json:"layers"` // samples per layer
}

// Share returns the layer's fraction of all samples.
func (p *Profile) Share(layer string) float64 { return ratio(p.Layers[layer], p.Samples) }

const (
	repoInternal = "github.com/aeolus-transport/aeolus/internal/"

	// samplePeriod is the CPU profiler's default period (100 Hz).
	samplePeriod = 10 * time.Millisecond
)

// gcWorkers are the runtime goroutines whose samples are garbage-collection
// work no layer called into directly.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf returns the layer a sample's stack is charged to, innermost frame
// first.
func layerOf(stack []string) string {
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, repoInternal); ok {
			if dot := strings.IndexByte(rest, '.'); dot > 0 {
				return strings.ReplaceAll(rest[:dot], "/", ".")
			}
		}
	}
	for _, f := range stack {
		for _, w := range gcWorkers {
			if f == w {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// FoldTraces folds the text `go tool pprof -traces` prints for a CPU
// profile. Each sample block starts after a separator line; its first stack
// line carries the sample's value in a 10-column field, and the frames
// follow, innermost first.
func FoldTraces(r io.Reader) (*Profile, error) {
	p := &Profile{Layers: make(map[string]float64)}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			p.Layers[layerOf(stack)] += value
			p.Samples += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if len(line) < 14 || line[10:13] != "   " {
			continue // header or label line
		}
		frame := strings.TrimSuffix(line[13:], " (inline)")
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("fold: sample value %q: %w", v, err)
			}
			flush()
			value = float64(d) / float64(samplePeriod)
		}
		stack = append(stack, frame)
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// foldProfiles merges CPU profiles into out with `go tool pprof -proto` and
// folds the merged profile.
func foldProfiles(ctx context.Context, files []string, out string) (*Profile, error) {
	merged, err := goTool(ctx, append([]string{"pprof", "-proto"}, files...)...)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out, merged, 0o644); err != nil {
		return nil, err
	}
	traces, err := goTool(ctx, "pprof", "-traces", out)
	if err != nil {
		return nil, err
	}
	return FoldTraces(bytes.NewReader(traces))
}

func goTool(ctx context.Context, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}
