package netem

import "fmt"

// audit walks the FIFO's live range, rejecting a nil live slot, and
// compares the recomputed byte total against the cached counter.
func (f *fifo) audit(name string) error {
	if len(f.ring)&(len(f.ring)-1) != 0 || f.n < 0 || f.n > len(f.ring) ||
		f.head < 0 || f.head >= max(len(f.ring), 1) {
		return fmt.Errorf("%s: %d live packets from head %d do not fit a %d-slot ring", name, f.n, f.head, len(f.ring))
	}
	var bytes int64
	for i := 0; i < f.n; i++ {
		p := f.ring[(f.head+i)&(len(f.ring)-1)]
		if p == nil {
			return fmt.Errorf("%s: nil packet at live position %d", name, i)
		}
		bytes += int64(p.WireSize)
	}
	if bytes != f.bytes {
		return fmt.Errorf("%s: cached %d bytes, contents sum to %d", name, f.bytes, bytes)
	}
	return nil
}

// Audit verifies the queue's cached byte counters against its contents:
// each band and the front band, and the bands' shared total against their
// sum.
func (q *Queue) Audit() error {
	var total int64
	for i := range q.bands {
		if err := q.bands[i].audit(fmt.Sprintf("band %d", i)); err != nil {
			return err
		}
		total += q.bands[i].size()
	}
	if total != q.total {
		return fmt.Errorf("queue: cached total %d, bands sum to %d", q.total, total)
	}
	if q.front != nil {
		return q.front.audit("front band")
	}
	return nil
}
