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

// AuditQdisc verifies a discipline's cached byte counters against its actual
// queue contents: each Queue band and the shared-buffer total against the
// band sums, the two NDP queues, and the ExpressPass credit queue plus its
// inner data discipline. Any other discipline passes vacuously.
func AuditQdisc(q Qdisc) error {
	switch v := q.(type) {
	case *Queue:
		var total int64
		for i := range v.bands {
			if err := v.bands[i].audit(fmt.Sprintf("band %d", i)); err != nil {
				return err
			}
			total += v.bands[i].size()
		}
		if total != v.total {
			return fmt.Errorf("queue: cached total %d, bands sum to %d", v.total, total)
		}
	case *NDPQueue:
		if err := v.ctrl.audit("ndp ctrl"); err != nil {
			return err
		}
		return v.data.audit("ndp data")
	case *XPassQdisc:
		if err := v.credits.audit("xpass credits"); err != nil {
			return err
		}
		return AuditQdisc(v.cfg.Data)
	}
	return nil
}
