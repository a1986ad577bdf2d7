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

// nullProto completes flows instantly without any network traffic. The
// nil embedded Protocol stands in for the methods Runner never calls.
type nullProto struct {
	Protocol
	env *Env
}

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
