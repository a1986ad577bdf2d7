package flatmap

import (
	"math/rand/v2"
	"testing"
)

func TestIndexBasic(t *testing.T) {
	var ix Index
	if _, ok := ix.Get(7); ok {
		t.Fatal("empty index claims to hold key 7")
	}
	s, added := ix.Put(7)
	if !added || s != 0 {
		t.Fatalf("first Put = (%d, %v), want (0, true)", s, added)
	}
	s, added = ix.Put(7)
	if added || s != 0 {
		t.Fatalf("duplicate Put = (%d, %v), want (0, false)", s, added)
	}
	s, added = ix.Put(42)
	if !added || s != 1 {
		t.Fatalf("second key Put = (%d, %v), want (1, true)", s, added)
	}
	if got, ok := ix.Get(7); !ok || got != 0 {
		t.Fatalf("Get(7) = (%d, %v), want (0, true)", got, ok)
	}
	if got, ok := ix.Get(42); !ok || got != 1 {
		t.Fatalf("Get(42) = (%d, %v), want (1, true)", got, ok)
	}
	if _, ok := ix.Get(1); ok {
		t.Fatal("Get(1) found a key never inserted")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", ix.Len())
	}
}

// Slots are dense, insertion-ordered, and stable across growth; Keys()
// mirrors the insertion order exactly.
func TestIndexDenseSlotsAcrossGrowth(t *testing.T) {
	var ix Index
	const n = 10000
	keys := make([]uint64, n)
	rng := rand.New(rand.NewPCG(1, 2))
	seen := map[uint64]bool{}
	for i := range keys {
		k := rng.Uint64()
		for seen[k] {
			k = rng.Uint64()
		}
		seen[k] = true
		keys[i] = k
		s, added := ix.Put(k)
		if !added || s != uint32(i) {
			t.Fatalf("Put(#%d) = (%d, %v), want (%d, true)", i, s, added, i)
		}
	}
	for i, k := range keys {
		if s, ok := ix.Get(k); !ok || s != uint32(i) {
			t.Fatalf("Get(#%d) = (%d, %v), want (%d, true)", i, s, ok, i)
		}
	}
	order := ix.Keys()
	if len(order) != n {
		t.Fatalf("Keys() has %d entries, want %d", len(order), n)
	}
	for i, k := range order {
		if k != keys[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, k, keys[i])
		}
	}
}

// Zero is a legal key, not a sentinel.
func TestIndexZeroKey(t *testing.T) {
	var ix Index
	s, added := ix.Put(0)
	if !added || s != 0 {
		t.Fatalf("Put(0) = (%d, %v), want (0, true)", s, added)
	}
	if got, ok := ix.Get(0); !ok || got != 0 {
		t.Fatalf("Get(0) = (%d, %v), want (0, true)", got, ok)
	}
	if _, added := ix.Put(0); added {
		t.Fatal("second Put(0) claimed to add")
	}
}

// Adversarial keys that all hash to nearby buckets must still resolve via
// linear probing.
func TestIndexCollisions(t *testing.T) {
	var ix Index
	// Keys differing only in bits below the hash shift collide maximally
	// under the multiplicative hash's top-bit extraction when crafted as
	// multiples of the modular inverse; simple sequential IDs are already a
	// decent stress since flow IDs are sequential in every run.
	for k := uint64(1); k <= 5000; k++ {
		if s, added := ix.Put(k); !added || s != uint32(k-1) {
			t.Fatalf("Put(%d) = (%d, %v)", k, s, added)
		}
	}
	for k := uint64(1); k <= 5000; k++ {
		if s, ok := ix.Get(k); !ok || s != uint32(k-1) {
			t.Fatalf("Get(%d) = (%d, %v)", k, s, ok)
		}
	}
}

func BenchmarkIndexPutGet(b *testing.B) {
	var ix Index
	for i := 0; i < 1<<16; i++ {
		ix.Put(uint64(i) * 2654435761)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i&0xffff) * 2654435761
		if _, ok := ix.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}
