package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// SetFile is a full set of runs as -out writes it and -compare reads it.
type SetFile struct {
	Stamp     Stamp                      `json:"stamp"`
	Workloads map[string]WorkloadSummary `json:"workloads"`
}

// Stamp records where and on what a set was measured.
type Stamp struct {
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit,omitempty"`
	Modified   bool   `json:"modified,omitempty"` // the commit had uncommitted changes
	Time       string `json:"time"`
}

// WorkloadSummary is one workload's part of a set.
type WorkloadSummary struct {
	EndToEnd  map[string]Summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// NewSetFile summarizes the results of a set.
func NewSetFile(results []*Result, seed uint64, reps int) *SetFile {
	st := Stamp{Seed: seed, Reps: reps, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Time: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Modified = s.Value == "true"
			}
		}
	}
	sf := &SetFile{Stamp: st, Workloads: make(map[string]WorkloadSummary, len(results))}
	for _, res := range results {
		sf.Workloads[res.Workload.Name] = WorkloadSummary{EndToEnd: res.EndToEnd(),
			PerLayer: res.PerLayer(), Attempted: res.Attempted(), Failed: res.Failed()}
	}
	return sf
}

// Print renders the set as text tables: every end-to-end metric as median,
// quartiles and sample count, then the check counts and per-layer metrics.
func (sf *SetFile) Print(w io.Writer) {
	s := sf.Stamp
	fmt.Fprintf(w, "# seed %d, %d reps, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		s.Seed, s.Reps, s.NProc, s.GOMAXPROCS, s.Go, s.Commit)
	for _, wl := range Workloads {
		ws, ok := sf.Workloads[wl.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n## %s\n%-24s %12s %12s %12s %3s  %s\n", wl.Name, "metric", "median", "q1", "q3", "n", "unit")
		for _, m := range EndToEnd {
			fmt.Fprintf(w, "%-24s %s  %s\n", m.Name, ws.EndToEnd[m.Name], m.Unit)
		}
		frac := 0.0
		if ws.Attempted > 0 {
			frac = float64(ws.Failed) / float64(ws.Attempted)
		}
		fmt.Fprintf(w, "%-24s %12d of %d checks failed  fail_frac %g\n", "checks", ws.Failed, ws.Attempted, frac)
		for _, m := range PerLayer {
			fmt.Fprintf(w, "  %-34s %14.6g  %s\n", m.Name, ws.PerLayer[m.Name], m.Unit)
		}
	}
}

// WriteSetFile writes the set as indented JSON.
func WriteSetFile(path string, sf *SetFile) error {
	buf, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadSetFile reads a set written by WriteSetFile.
func ReadSetFile(path string) (*SetFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf SetFile
	if err := json.Unmarshal(buf, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}
