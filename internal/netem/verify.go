package netem

import "fmt"

// audit recomputes the FIFO's byte total from its contents and compares it
// against the cached counter.
func (f *fifo) audit(name string) error {
	var bytes int64
	for i := f.head; i < len(f.pkts); i++ {
		if f.pkts[i] == nil {
			return fmt.Errorf("%s: nil packet at live position %d", name, i)
		}
		bytes += int64(f.pkts[i].WireSize)
	}
	if bytes != f.bytes {
		return fmt.Errorf("%s: cached %d bytes, contents sum to %d", name, f.bytes, bytes)
	}
	if f.head < 0 || f.head > len(f.pkts) {
		return fmt.Errorf("%s: head %d outside [0, %d]", name, f.head, len(f.pkts))
	}
	return nil
}

// AuditQdisc verifies a discipline's cached byte counters against its actual
// queue contents: each Queue band and the shared-buffer total against the
// band sums, the two NDP queues, and the ExpressPass credit queue plus its
// inner data discipline. Instrumentation and fault-injection wrappers are
// unwrapped; any other discipline passes vacuously.
func AuditQdisc(q Qdisc) error {
	switch v := q.(type) {
	case *tracedQdisc:
		return AuditQdisc(v.Qdisc)
	case *ImpairedQdisc:
		return AuditQdisc(v.inner)
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
