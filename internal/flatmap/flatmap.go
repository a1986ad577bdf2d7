// Package flatmap provides a dependency-free open-addressed hash index
// mapping uint64 keys to dense uint32 slots, for per-flow state tables that
// only ever grow (the simulator never forgets a flow mid-run), and the
// block slab that holds values at such slots.
//
// The point versus a built-in map is layout: the index hands out *dense*
// slots in insertion order, so callers keep their actual state in a packed
// array (or a Slab, which grows in blocks without copying) indexed by slot,
// instead of scattering pointer-sized map values across the heap. Lookups
// are one multiplicative hash plus a short linear probe over two flat
// arrays — no bucket pointers, no tophash bytes, no write barriers — and
// iteration over Keys() is insertion-ordered and allocation-free, which the
// deterministic audits rely on.
//
// The index does not support deletion; none of its users ever delete.
package flatmap

// Index maps uint64 keys to dense uint32 slots: the i-th distinct key ever
// Put is assigned slot i. The zero value is an empty, ready-to-use index.
type Index struct {
	// Open-addressed buckets in two parallel flat arrays. ctrl holds
	// slot+1 so the zero value means "empty" and a fresh table needs no
	// initialization pass beyond make().
	keys []uint64
	ctrl []uint32

	order []uint64 // keys in insertion order; len(order) == Len()
	shift uint     // 64 - log2(len(keys))
}

const minBuckets = 16

// hash spreads the key with the SplitMix64 multiplicative constant; the top
// bits index the table, so consecutive flow IDs land far apart.
func (ix *Index) hash(key uint64) uint32 {
	return uint32((key * 0x9e3779b97f4a7c15) >> ix.shift)
}

// Len returns the number of distinct keys.
func (ix *Index) Len() int { return len(ix.order) }

// Keys returns the keys in insertion order. The slice is the index's own
// backing store: callers must treat it as read-only.
func (ix *Index) Keys() []uint64 { return ix.order }

// Get returns the slot of key, or (0, false) when absent.
func (ix *Index) Get(key uint64) (uint32, bool) {
	if len(ix.keys) == 0 {
		return 0, false
	}
	mask := uint32(len(ix.keys) - 1)
	for i := ix.hash(key); ; i = (i + 1) & mask {
		c := ix.ctrl[i]
		if c == 0 {
			return 0, false
		}
		if ix.keys[i] == key {
			return c - 1, true
		}
	}
}

// Put returns the slot of key, inserting it (with slot = Len()) when absent.
// added reports whether the key was new.
func (ix *Index) Put(key uint64) (slot uint32, added bool) {
	// Grow at 3/4 load so probe chains stay short.
	if 4*(len(ix.order)+1) > 3*len(ix.keys) {
		ix.grow()
	}
	mask := uint32(len(ix.keys) - 1)
	for i := ix.hash(key); ; i = (i + 1) & mask {
		c := ix.ctrl[i]
		if c == 0 {
			slot = uint32(len(ix.order))
			ix.keys[i] = key
			ix.ctrl[i] = slot + 1
			ix.order = append(ix.order, key)
			return slot, true
		}
		if ix.keys[i] == key {
			return c - 1, false
		}
	}
}

// grow doubles the bucket array and rehashes every occupied bucket.
func (ix *Index) grow() {
	n := 2 * len(ix.keys)
	if n < minBuckets {
		n = minBuckets
	}
	oldKeys, oldCtrl := ix.keys, ix.ctrl
	ix.keys = make([]uint64, n)
	ix.ctrl = make([]uint32, n)
	shift := uint(64)
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	ix.shift = shift
	mask := uint32(n - 1)
	for b, c := range oldCtrl {
		if c == 0 {
			continue
		}
		k := oldKeys[b]
		i := ix.hash(k)
		for ix.ctrl[i] != 0 {
			i = (i + 1) & mask
		}
		ix.keys[i] = k
		ix.ctrl[i] = c
	}
}
