package netem

import "github.com/aeolus-transport/aeolus/internal/sim"

// NDPQueueConfig selects the behaviour of an NDPQueue port.
type NDPQueueConfig struct {
	// Trim enables NDP's cutting-payload behaviour: a Data packet arriving
	// at a full data queue has its payload cut and the 64-byte header is
	// queued in the control queue instead of being dropped.
	Trim bool

	// SelectiveThresholdBytes, when positive, replaces trimming with Aeolus
	// selective dropping: unscheduled Data packets are dropped once the data
	// backlog would exceed the threshold, scheduled Data packets are only
	// bounded by DataLimitBytes. This is the NDP+Aeolus configuration of
	// §5.4, which needs no switch modification.
	SelectiveThresholdBytes int64

	// DataLimitBytes bounds the data queue. NDP's default is 8 full-size
	// packets (the paper's trimming threshold: "the threshold of packet
	// trimming is set to 8 packets (72KB)" with 9 KB jumbo frames).
	DataLimitBytes int64

	// CtrlLimitBytes bounds the control queue (headers, ACKs, NACKs, pulls).
	CtrlLimitBytes int64
}

// NDPQueue is the two-queue switch port used by NDP (§5.4): a strict
// high-priority control queue for headers and control packets, and a short
// data queue that either trims (original NDP) or selectively drops
// (NDP+Aeolus) on overflow.
type NDPQueue struct {
	cfg     NDPQueueConfig
	ctrl    fifo
	data    fifo
	trimmed uint64
}

// NewNDPQueue returns a queue with the given configuration.
func NewNDPQueue(cfg NDPQueueConfig) *NDPQueue {
	if cfg.DataLimitBytes <= 0 {
		cfg.DataLimitBytes = 8 * JumboMTU
	}
	if cfg.CtrlLimitBytes <= 0 {
		cfg.CtrlLimitBytes = DefaultBuffer
	}
	return &NDPQueue{cfg: cfg}
}

// Trimmed reports how many packets this queue has cut to headers.
func (q *NDPQueue) Trimmed() uint64 { return q.trimmed }

// Enqueue implements Qdisc.
func (q *NDPQueue) Enqueue(p *Packet, _ sim.Time) DropReason {
	if p.Type.IsControl() || p.Trimmed {
		if q.ctrl.size()+int64(p.WireSize) > q.cfg.CtrlLimitBytes {
			return DropTrimFail
		}
		q.ctrl.push(p)
		return Queued
	}
	// Data packet.
	if q.cfg.SelectiveThresholdBytes > 0 && !p.Scheduled &&
		q.data.size()+int64(p.WireSize) > q.cfg.SelectiveThresholdBytes {
		return DropSelective
	}
	if q.data.size()+int64(p.WireSize) > q.cfg.DataLimitBytes {
		if !q.cfg.Trim {
			return DropTailFull
		}
		p.Trim()
		if q.ctrl.size()+int64(p.WireSize) > q.cfg.CtrlLimitBytes {
			return DropTrimFail
		}
		q.trimmed++
		q.ctrl.push(p)
		return Queued
	}
	q.data.push(p)
	return Queued
}

// Dequeue implements Qdisc: control strictly before data.
func (q *NDPQueue) Dequeue(_ sim.Time) *Packet {
	if !q.ctrl.empty() {
		return q.ctrl.pop()
	}
	return q.data.pop()
}

// NextWake implements Qdisc.
func (q *NDPQueue) NextWake(_ sim.Time) sim.Time { return sim.MaxTime }

// Backlog implements Qdisc.
func (q *NDPQueue) Backlog() Backlog {
	return Backlog{q.ctrl.len() + q.data.len(), q.ctrl.size() + q.data.size()}
}
