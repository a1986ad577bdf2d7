package bench

import (
	"os"
	"strings"
	"testing"
)

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := FoldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"transport.rdbase": 1,   // a GC assist, charged to the allocating layer
		"netem":            2,   // an inlined frame
		"sim":              120, // a 1.20s value
		"workload":         3,   // stdlib sort called from workload.Merge
		"runtime.gc":       5,   // mark and sweep workers
		"runtime.other":    6,   // scheduler idle and the benchmark's own sampler
	}
	if len(p.Layers) != len(want) {
		t.Errorf("layers %v, want %v", p.Layers, want)
	}
	for layer, n := range want {
		if p.Layers[layer] != n {
			t.Errorf("%s: %v samples, want %v", layer, p.Layers[layer], n)
		}
	}
	if p.Samples != 137 {
		t.Errorf("total %v samples, want 137", p.Samples)
	}
	if got := p.Share("sim"); got != 120.0/137 {
		t.Errorf("sim share %v", got)
	}
}

func TestFoldTracesRejectsBadValue(t *testing.T) {
	in := "-----------+----\n      10xx   github.com/aeolus-transport/aeolus/internal/sim.f\n"
	if _, err := FoldTraces(strings.NewReader(in)); err == nil {
		t.Error("accepted a malformed sample value")
	}
}
