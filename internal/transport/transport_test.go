package transport

import (
	"testing"
	"testing/quick"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	eng := sim.NewEngine()
	net := netem.BuildClos(eng, netem.TopoSpec{HostsPerEdge: 4, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	return NewEnv(net, netem.MaxPayload)
}

func TestSegmenter(t *testing.T) {
	s := Segmenter{Size: 3000, MSS: 1460}
	if s.NumSegs() != 3 {
		t.Fatalf("NumSegs = %d", s.NumSegs())
	}
	if s.SegLen(0) != 1460 || s.SegLen(1) != 1460 || s.SegLen(2) != 80 {
		t.Fatalf("segment lengths wrong: %d %d %d", s.SegLen(0), s.SegLen(1), s.SegLen(2))
	}
	if s.Offset(2) != 2920 {
		t.Fatalf("Offset(2) = %d", s.Offset(2))
	}
	if s.SegOf(2920) != 2 || s.SegOf(1459) != 0 {
		t.Fatal("SegOf wrong")
	}
}

// Property: segments tile the flow exactly — no gaps, no overlap, total
// length equals the flow size.
func TestSegmenterTilingProperty(t *testing.T) {
	prop := func(size uint32, mssRaw uint16) bool {
		mss := int(mssRaw%9000) + 1
		s := Segmenter{Size: int64(size%10_000_000) + 1, MSS: mss}
		var total int64
		for i := 0; i < s.NumSegs(); i++ {
			if s.Offset(i) != total {
				return false
			}
			l := s.SegLen(i)
			if l <= 0 || l > mss {
				return false
			}
			total += int64(l)
		}
		return total == s.Size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRxTracker(t *testing.T) {
	tr := NewRxTracker(3000, 1460)
	if tr.Complete() {
		t.Fatal("empty tracker complete")
	}
	if n := tr.Accept(0); n != 1460 {
		t.Fatalf("Accept(0) = %d", n)
	}
	if n := tr.Accept(0); n != 0 {
		t.Fatalf("duplicate Accept = %d", n)
	}
	if got := tr.Missing(3, nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Missing = %v", got)
	}
	scratch := make([]int, 0, 4)
	if got := tr.Missing(3, scratch); len(got) != 2 || &got[0] != &scratch[:1][0] {
		t.Fatalf("Missing did not reuse scratch: %v", got)
	}
	tr.Accept(2920)
	tr.Accept(1460)
	if !tr.Complete() || tr.Bytes() != 3000 {
		t.Fatalf("tracker incomplete: bytes=%d", tr.Bytes())
	}
	if !tr.Has(1) {
		t.Fatal("Has(1) = false")
	}
}

func TestRxTrackerPanicsOutOfRange(t *testing.T) {
	tr := NewRxTracker(1000, 1460)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Accept did not panic")
		}
	}()
	tr.Accept(5000)
}

// Property: accepting any permutation of offsets completes the flow with
// exactly Size unique bytes.
func TestRxTrackerConservationProperty(t *testing.T) {
	prop := func(sizeRaw uint16, order []uint8) bool {
		size := int64(sizeRaw) + 1
		tr := NewRxTracker(size, 100)
		n := tr.Seg.NumSegs()
		// Accept segments in a scrambled order with duplicates.
		var unique int64
		for _, o := range order {
			unique += int64(tr.Accept(tr.Seg.Offset(int(o) % n)))
		}
		for i := 0; i < n; i++ {
			unique += int64(tr.Accept(tr.Seg.Offset(i)))
		}
		return tr.Complete() && unique == size && tr.Bytes() == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIdealFCT(t *testing.T) {
	env := testEnv(t)
	small := env.IdealFCT(1460)
	large := env.IdealFCT(1_000_000)
	if small <= 0 || large <= small {
		t.Fatalf("ideal FCTs not monotone: %v %v", small, large)
	}
	// 1 MB at 10 Gbps ≈ 820 µs of serialization.
	if large < 800*sim.Microsecond || large > 900*sim.Microsecond {
		t.Fatalf("IdealFCT(1MB) = %v", large)
	}
	// Very large flows must not overflow.
	huge := env.IdealFCT(600_000_000)
	if huge <= large {
		t.Fatal("IdealFCT(600MB) overflowed or non-monotone")
	}
}

func TestFlowHashDeterministicAndSpread(t *testing.T) {
	if FlowHash(1) != FlowHash(1) {
		t.Fatal("FlowHash not deterministic")
	}
	buckets := map[uint32]int{}
	for i := uint64(0); i < 8000; i++ {
		buckets[FlowHash(i)%8]++
	}
	for b, n := range buckets {
		if n < 800 || n > 1200 {
			t.Fatalf("bucket %d has %d of 8000 (poor spread)", b, n)
		}
	}
}

// nullProto completes flows instantly without any network traffic.
type nullProto struct{ env *Env }

func (n *nullProto) Name() string { return "null" }
func (n *nullProto) Start(f *Flow) {
	n.env.FlowDone(f)
}

func TestRunnerCompletesAndStops(t *testing.T) {
	env := testEnv(t)
	p := &nullProto{env: env}
	trace := []workload.FlowSpec{
		{ID: 1, Src: 0, Dst: 1, Size: 100, Start: 10},
		{ID: 2, Src: 0, Dst: 2, Size: 100, Start: 20},
		{ID: 3, Src: 1, Dst: 3, Size: 100, Start: 30},
	}
	done := Runner(env, p, trace, sim.MaxTime)
	if done != 3 {
		t.Fatalf("Runner completed %d, want 3", done)
	}
	if env.Completed() != 3 {
		t.Fatalf("Completed() = %d", env.Completed())
	}
	// Records carry ideal FCTs and sizes.
	for _, r := range env.FCT.Records() {
		if r.Size != 100 || r.IdealFCT <= 0 {
			t.Fatalf("bad record %+v", r)
		}
	}
}
