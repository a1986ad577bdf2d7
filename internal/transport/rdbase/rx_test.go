package rdbase

import (
	"testing"
	"testing/quick"

	"github.com/aeolus-transport/aeolus/internal/transport"
)

// newRx returns a receiver reassembling a flow of the given size. Accept and
// Missing need only the environment's MSS and meter, not a network.
func newRx(size int64, mss int) *Rx {
	r := &Rx{Env: &transport.Env{MSS: mss}, Flow: &transport.Flow{ID: 1, Size: size}}
	r.Track()
	return r
}

func TestRx(t *testing.T) {
	r := newRx(3000, 1460)
	if r.Complete() {
		t.Fatal("empty receiver complete")
	}
	if n := r.Accept(0); n != 1460 {
		t.Fatalf("Accept(0) = %d", n)
	}
	if n := r.Accept(0); n != 0 {
		t.Fatalf("duplicate Accept = %d", n)
	}
	if got := r.Missing(3, nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Missing = %v", got)
	}
	scratch := make([]int, 0, 4)
	if got := r.Missing(3, scratch); len(got) != 2 || &got[0] != &scratch[:1][0] {
		t.Fatalf("Missing did not reuse scratch: %v", got)
	}
	r.Accept(2920)
	r.Accept(1460)
	if !r.Complete() || r.Bytes() != 3000 || r.Env.Meter.DeliveredPayload != 3000 {
		t.Fatalf("receiver incomplete: bytes=%d delivered=%d", r.Bytes(), r.Env.Meter.DeliveredPayload)
	}
	if got := r.Missing(3, nil); len(got) != 0 {
		t.Fatalf("Missing after completion = %v", got)
	}
}

func TestRxPanicsOutOfRange(t *testing.T) {
	r := newRx(1000, 1460)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Accept did not panic")
		}
	}()
	r.Accept(5000)
}

// Property: accepting any permutation of offsets completes the flow with
// exactly Size unique bytes.
func TestRxConservationProperty(t *testing.T) {
	prop := func(sizeRaw uint16, order []uint8) bool {
		size := int64(sizeRaw) + 1
		r := newRx(size, 100)
		seg := r.Seg()
		n := seg.NumSegs()
		// Accept segments in a scrambled order with duplicates.
		var unique int64
		for _, o := range order {
			unique += int64(r.Accept(seg.Offset(int(o) % n)))
		}
		for i := 0; i < n; i++ {
			unique += int64(r.Accept(seg.Offset(i)))
		}
		return r.Complete() && unique == size && r.Bytes() == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
