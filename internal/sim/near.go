package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Near-tier geometry: a ring of 4,096 buckets, each 1,024 ps wide, so the
// window spans 2^22 ps ≈ 4.19 µs from its first bucket, never later than
// the clock's. On a 100G fabric a delivery is due about 623 ns ahead, a
// tx-done 123 ns and a credit 6.7 ns, so nearly every schedule lands in
// the ring; what falls past it is mostly timers.
const (
	bucketBits  = 10
	nearBits    = 12
	nearBuckets = 1 << nearBits
	nearMask    = nearBuckets - 1
	nearWords   = nearBuckets / 64
	nearSpan    = Time(1) << (bucketBits + nearBits)

	// sortInline is the largest batch sorted by insertion sort alone; a
	// larger one is radix-sorted first, in two passes of radixBits of the
	// deadline's offset into the bucket.
	sortInline   = 8
	radixBits    = bucketBits / 2
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
)

// tiered is the production scheduler: a near tier of 1 ns buckets in front
// of the timing wheel, which serves as the far tier. An event due inside the
// window is linked once, unsorted, into its bucket's list. When the
// earliest occupied bucket comes due, a lone event pops directly; several
// are copied out as keys, sorted, and served from that key array, the
// dispatch batch. An event due later waits in the far tier and moves into
// its bucket when the window reaches it. Dispatch order is the strict
// (time, schedAt, seq) order of the heap.
type tiered struct {
	sl *eventSlab

	// base is the absolute number (deadline >> bucketBits) of the window's
	// first bucket. It never passes the engine clock's bucket, so every
	// schedule lands at or after it.
	base  uint64
	heads [nearBuckets]uint32 // bucket list heads, indexed by bucket number mod nearBuckets
	occ   [nearWords]uint64   // bit i%64 of occ[i/64] set iff bucket i holds events
	words uint64              // bit w set iff occ[w] != 0

	// batch is the live dispatch batch: the keys of the window's first
	// bucket, sorted, served from batch[pos]. While it is live, an event
	// scheduled into that bucket joins it at its sorted position.
	batch []batchKey
	pos   int
	tmp   []batchKey // the radix sort's second buffer

	far       wheel
	farFloor  Time // no far-tier event is due before it
	farPlaced int

	count, peak int
}

// batchKey is one dispatch-batch entry: the event's deadline as its offset
// into the bucket, above its slab index. Keys order by deadline as plain
// integers, so a batch sorts without reading the slab; only keys sharing a
// deadline read their events' (schedAt, seq) stamps to break the tie.
type batchKey uint64

func key(off Time, idx uint32) batchKey { return batchKey(off)<<32 | batchKey(idx) }
func (k batchKey) off() Time            { return Time(k >> 32) }
func (k batchKey) idx() uint32          { return uint32(k) }

// before reports whether key a dispatches ahead of key b: the integer
// order, unless they share a deadline.
func (q *tiered) before(a, b batchKey) bool {
	if (a^b)>>32 != 0 {
		return a < b
	}
	return q.stampBefore(a, b)
}

// stampBefore reports whether the event of key a precedes that of key b by
// (schedAt, seq), the order within an instant. Ties are rare, so it stays
// out of line, which lets before inline into the sort loops.
//
//go:noinline
func (q *tiered) stampBefore(a, b batchKey) bool {
	ea, eb := q.sl.at(a.idx()), q.sl.at(b.idx())
	return ea.schedAt < eb.schedAt || ea.schedAt == eb.schedAt && ea.seq < eb.seq
}

func newTiered(sl *eventSlab) *tiered {
	q := &tiered{sl: sl}
	q.far.sl = sl
	return q
}

// bucket returns the ring index of the bucket holding t.
func bucket(t Time) uint32 { return uint32(uint64(t)>>bucketBits) & nearMask }

// last returns the window's last instant: later deadlines go to the far
// tier. At the top of the clock the window is cut at MaxTime.
func (q *tiered) last() Time {
	end := q.base<<bucketBits + uint64(nearSpan)
	return Time(min(end-1, uint64(MaxTime)))
}

func (q *tiered) live() bool { return q.pos < len(q.batch) }

// start returns the first instant of the window's first bucket, which the
// live batch's keys are offsets into.
func (q *tiered) start() Time { return Time(q.base << bucketBits) }

func (q *tiered) schedule(ev *Event, idx uint32) {
	q.count++
	if q.count > q.peak {
		q.peak = q.count
	}
	switch off := uint64(ev.time)>>bucketBits - q.base; {
	case off >= nearBuckets:
		q.farPlaced++
		if q.far.count == 0 || ev.time < q.farFloor {
			q.farFloor = ev.time
		}
		q.far.schedule(ev, idx)
	case off == 0 && q.live():
		q.join(ev, idx)
	default:
		q.push(ev, idx)
	}
}

// push links ev into its bucket's list.
func (q *tiered) push(ev *Event, idx uint32) {
	i := bucket(ev.time)
	w, bit := i>>6, uint64(1)<<(i&63)
	q.sl.pushFront(&q.heads[i], q.occ[w]&bit == 0, ev, idx, listNear)
	q.occ[w] |= bit
	q.words |= 1 << w
}

// clear marks bucket i empty.
func (q *tiered) clear(i uint32) {
	w := i >> 6
	if q.occ[w] &^= 1 << (i & 63); q.occ[w] == 0 {
		q.words &^= 1 << w
	}
}

// join inserts ev into the live batch at its (time, schedAt, seq) position,
// walking back from the tail: a plain schedule at the batch's latest
// instant stops at once, an earlier instant of the bucket or a reserved or
// backdated stamp passes the keys that sort after it. It never passes the
// event being dispatched, because the engine refuses a stamp that has
// passed.
func (q *tiered) join(ev *Event, idx uint32) {
	ev.in = listBatch
	k := key(ev.time-q.start(), idx)
	q.batch = append(q.batch, k)
	j := len(q.batch) - 1
	for ; j > q.pos && q.before(k, q.batch[j-1]); j-- {
		q.batch[j] = q.batch[j-1]
	}
	q.batch[j] = k
}

func (q *tiered) remove(ev *Event, idx uint32) {
	switch ev.in {
	case listNear:
		if i := bucket(ev.time); q.sl.unlink(&q.heads[i], ev, idx) {
			q.clear(i)
		}
	case listBatch:
		j := q.pos
		for q.batch[j].idx() != idx {
			j++
		}
		q.batch = slices.Delete(q.batch, j, j+1)
		if !q.live() {
			q.batch, q.pos = q.batch[:0], 0
		}
		ev.in = listNone
	default:
		q.far.remove(ev, idx)
	}
	q.count--
}

// earliest returns the absolute number of the earliest occupied bucket,
// scanning the ring circularly from the window's first bucket, or false
// when the ring is empty.
func (q *tiered) earliest() (uint64, bool) {
	if q.words == 0 {
		return 0, false
	}
	p := uint32(q.base) & nearMask
	w := p >> 6
	var i uint32
	if m := q.occ[w] >> (p & 63); m != 0 {
		i = p + uint32(bits.TrailingZeros64(m))
	} else {
		// The words after w, wrapping round to w itself, whose bits below p
		// come last.
		r := bits.RotateLeft64(q.words, -int(w+1))
		w = (w + 1 + uint32(bits.TrailingZeros64(r))) % nearWords
		i = w<<6 | uint32(bits.TrailingZeros64(q.occ[w]))
	}
	return q.base + uint64((i-p)&nearMask), true
}

// advance moves the window's first bucket to b, migrating the far-tier
// events the window now covers when farFloor says there may be some.
func (q *tiered) advance(b uint64) {
	q.base = b
	if q.far.count > 0 && q.farFloor <= q.last() {
		q.migrate()
	}
}

// migrate moves every far-tier event the window covers into its bucket, in
// whatever order the far tier yields them. The far tier's clock may run
// ahead of the engine clock here, up to the window's last instant. Migrated
// events land past the old window's end, in buckets the ring no longer
// holds anything in.
func (q *tiered) migrate() {
	last := q.last()
	for idx := q.far.popDue(last); idx != nilIdx; idx = q.far.popDue(last) {
		q.push(q.sl.at(idx), idx)
	}
	q.farFloor = q.far.floor()
}

// popDue serves the live batch first. Otherwise the earliest occupied
// bucket is the earliest of all (every far-tier event is past the window),
// and with the ring empty the window jumps to the far tier's earliest
// event. A bucket's lone event pops directly; several become the batch.
// The window advances to the bucket only once something in it is due, so
// it never passes the clock the engine moves to.
func (q *tiered) popDue(limit Time) uint32 {
	if !q.live() {
		b, ok := q.earliest()
		if !ok {
			if q.far.count == 0 {
				return nilIdx
			}
			idx := q.far.popDue(limit)
			if idx == nilIdx {
				return nilIdx
			}
			// Its instant may hold more far-tier events stamped ahead of it,
			// so it goes through its bucket like any other.
			ev := q.sl.at(idx)
			b = uint64(ev.time) >> bucketBits
			q.advance(b)
			q.push(ev, idx)
		}
		i := uint32(b) & nearMask
		h := q.heads[i]
		if q.sl.link(h).next == nilIdx {
			ev := q.sl.at(h)
			if ev.time > limit {
				return nilIdx
			}
			q.advance(b)
			q.clear(i)
			ev.in = listNone
			q.count--
			return h
		}
		if Time(b<<bucketBits) > limit {
			return nilIdx
		}
		q.advance(b)
		q.fill(i, h)
	}
	k := q.batch[q.pos]
	if q.start()+k.off() > limit {
		return nilIdx
	}
	if q.pos++; !q.live() {
		q.batch, q.pos = q.batch[:0], 0
	}
	q.sl.at(k.idx()).in = listNone
	q.count--
	return k.idx()
}

// fill detaches bucket i, whose list starts at h, as the dispatch batch:
// it is the window's first bucket. The walk reads only the links, so the
// members' events are then read in a loop of independent loads, which the
// processor overlaps. The list runs newest first. A batch of up to
// sortInline keys is reversed into schedule order and insertion sorted. A
// larger one is radix-sorted, stably and reading the list from its oldest
// key, so keys sharing a deadline keep their schedule order, which is
// their stamp order unless a stamp was reserved or backdated or the event
// migrated; the insertion pass then only orders such ties.
func (q *tiered) fill(i, h uint32) {
	for j := h; j != nilIdx; j = q.sl.link(j).next {
		q.batch = append(q.batch, key(0, j))
	}
	q.clear(i)
	keys := q.batch
	start := q.start()
	for a, k := range keys {
		ev := q.sl.at(k.idx())
		ev.in = listBatch
		keys[a] = key(ev.time-start, k.idx())
	}
	if len(keys) > sortInline {
		q.radix()
	} else {
		slices.Reverse(keys)
	}
	for a := 1; a < len(keys); a++ {
		k := keys[a]
		c := a
		for ; c > 0 && q.before(k, keys[c-1]); c-- {
			keys[c] = keys[c-1]
		}
		keys[c] = k
	}
}

// radix sorts the batch, newest key first, by deadline offset into
// schedule order within each offset: a least-significant-digit radix sort
// whose first pass reads the keys from the oldest. The second buffer grows
// with the batch.
func (q *tiered) radix() {
	keys := q.batch
	if cap(q.tmp) < len(keys) {
		q.tmp = make([]batchKey, cap(keys))
	}
	tmp := q.tmp[:len(keys)]
	var lo, hi [radixBuckets + 1]int32
	for _, k := range keys {
		lo[k>>32&radixMask+1]++
		hi[k>>(32+radixBits)&radixMask+1]++
	}
	for d := 1; d < radixBuckets; d++ {
		lo[d] += lo[d-1]
		hi[d] += hi[d-1]
	}
	for j := len(keys) - 1; j >= 0; j-- {
		k := keys[j]
		d := k >> 32 & radixMask
		tmp[lo[d]] = k
		lo[d]++
	}
	for _, k := range tmp {
		d := k >> (32 + radixBits) & radixMask
		keys[hi[d]] = k
		hi[d]++
	}
}

// next returns the earliest pending deadline without mutating the queue:
// the live batch's next key, else the minimum of the earliest occupied
// bucket, else the far tier's earliest.
func (q *tiered) next() (Time, bool) {
	if q.live() {
		return q.start() + q.batch[q.pos].off(), true
	}
	if b, ok := q.earliest(); ok {
		best := MaxTime
		for j := q.heads[uint32(b)&nearMask]; j != nilIdx; j = q.sl.link(j).next {
			best = min(best, q.sl.at(j).time)
		}
		return best, true
	}
	return q.far.next()
}

func (q *tiered) size() int { return q.count }

func (q *tiered) stats() SchedStats {
	return SchedStats{Pending: q.count, PeakPending: q.peak, FarPlaced: q.farPlaced}
}

// check validates both tiers: the window's first bucket is not past the
// clock's; the summary word mirrors the occupancy words; every bucket
// member is pending, not behind the clock, inside the window and in the
// bucket its deadline selects; while a batch is live no bucket member
// shares its bucket; the live batch is in strict (time, schedAt, seq)
// order, every key matching its pending event in the window's first
// bucket; farFloor is past the window and no far-tier event precedes it,
// and the far tier's clock is not past the window's last instant (or the
// engine clock, where a RunUntil that found nothing due left it); and the
// counts add up.
func (q *tiered) check(now Time) error {
	if q.base > uint64(now)>>bucketBits {
		return fmt.Errorf("sim: near window starts at bucket %d, past the clock's %d", q.base, uint64(now)>>bucketBits)
	}
	last := q.last()
	count := 0
	for w := uint32(0); w < nearWords; w++ {
		if (q.occ[w] != 0) != (q.words&(1<<w) != 0) {
			return fmt.Errorf("sim: near-tier summary bit %d disagrees with its word", w)
		}
		for occ := q.occ[w]; occ != 0; occ &= occ - 1 {
			i := w<<6 | uint32(bits.TrailingZeros64(occ))
			n, err := q.sl.checkList(q.heads[i], listNear, fmt.Sprintf("near-tier bucket %d", i), func(ev *Event) error {
				switch {
				case ev.time < now:
					return fmt.Errorf("sim: near-tier event at %v behind clock %v", ev.time, now)
				case ev.time > last:
					return fmt.Errorf("sim: near-tier event at %v past the window's last instant %v", ev.time, last)
				case bucket(ev.time) != i:
					return fmt.Errorf("sim: event at %v in near-tier bucket %d, deadline selects %d", ev.time, i, bucket(ev.time))
				case q.live() && uint64(ev.time)>>bucketBits == q.base:
					return fmt.Errorf("sim: event at %v outside the live dispatch batch of its bucket", ev.time)
				}
				return nil
			})
			if err != nil {
				return err
			}
			count += n
		}
	}
	if q.pos > len(q.batch) || (q.pos > 0 && !q.live()) {
		return fmt.Errorf("sim: dispatch batch served %d of %d keys", q.pos, len(q.batch))
	}
	for j := q.pos; j < len(q.batch); j++ {
		k := q.batch[j]
		if uint64(k.idx()) >= q.sl.carved {
			return fmt.Errorf("sim: dispatch-batch key %d names slot %d, past the slab", j, k.idx())
		}
		ev := q.sl.at(k.idx())
		switch {
		case ev.in != listBatch || ev.resolved():
			return fmt.Errorf("sim: dispatch-batch key %d names an event outside the batch", j)
		case ev.time != q.start()+k.off():
			return fmt.Errorf("sim: dispatch-batch key %d disagrees with its event's deadline %v", j, ev.time)
		case ev.time < now:
			return fmt.Errorf("sim: dispatch-batch event at %v behind clock %v", ev.time, now)
		case j > q.pos && !q.before(q.batch[j-1], k):
			return fmt.Errorf("sim: dispatch batch out of (time, schedAt, seq) order at key %d", j)
		}
		count++
	}
	if q.far.count > 0 && q.farFloor <= last {
		return fmt.Errorf("sim: far-tier floor %v inside the near window ending %v", q.farFloor, last)
	}
	if err := q.far.check(q.farFloor, max(last, now)); err != nil {
		return err
	}
	if count+q.far.count != q.count {
		return fmt.Errorf("sim: tiers hold %d events but count says %d", count+q.far.count, q.count)
	}
	return nil
}
