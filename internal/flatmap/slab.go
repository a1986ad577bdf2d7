package flatmap

// slabBlock is the number of values per Slab block: small enough that a
// table of a handful of values carves a handful.
const slabBlock = 4

// Slab holds values at dense slots — an Index's, or a packet pool's — in
// blocks of slabBlock values behind a directory of block pointers, so At is
// one index and one mask. Grow carves the next run of blocks as one
// allocation, as many values as are carved already, from one block up to
// the caller's chunk: below its first chunk a slab carves at most twice
// what it holds, and at every multiple of the chunk exactly the one-chunk
// layout's carve. Values never move, so growth copies no value and the
// pointers At returns stay valid. The zero value is an empty slab.
type Slab[T any] struct {
	blocks []*[slabBlock]T
}

// At returns the value at slot i, which must be below Cap.
func (s *Slab[T]) At(i uint32) *T { return &s.blocks[i/slabBlock][i%slabBlock] }

// Cap returns the number of slots carved.
func (s *Slab[T]) Cap() int { return len(s.blocks) * slabBlock }

// Grow carves the next run of zeroed values. chunk is the largest run, a
// power of two no smaller than slabBlock.
func (s *Slab[T]) Grow(chunk int) {
	run := make([][slabBlock]T, min(max(s.Cap(), slabBlock), chunk)/slabBlock)
	for i := range run {
		s.blocks = append(s.blocks, &run[i])
	}
}
