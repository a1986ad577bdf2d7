package netem

import "github.com/aeolus-transport/aeolus/internal/sim"

// XPassQdiscConfig configures an ExpressPass switch port queue.
type XPassQdiscConfig struct {
	// CreditRate is the shaped drain rate of the credit queue. ExpressPass
	// rate-limits credits on every link so that the data triggered by the
	// credits of the *reverse* link never exceeds its capacity: for 84-byte
	// credits and 1538-byte maximum data frames the credit rate is
	// linkRate * 84/1538 ≈ 5.46% of the link.
	CreditRate sim.Rate

	// CreditLimit bounds the credit queue in packets; excess credits are
	// dropped, which is the congestion signal ExpressPass feeds back.
	CreditLimit int

	// Data is the discipline for non-credit packets. ExpressPass proper uses
	// a drop-tail FIFO; ExpressPass+Aeolus adds a selective dropping
	// threshold to it.
	Data Qdisc
}

// CreditRateFor returns the shaped credit rate for a given link rate,
// following ExpressPass: creditSize/(creditSize+maxDataSize-ish) — the
// canonical ratio 84/1538.
func CreditRateFor(link sim.Rate) sim.Rate {
	return sim.Rate(int64(link) * CreditSize / 1538)
}

// XPassQdisc implements the per-port queueing of an ExpressPass fabric: a
// shaped, bounded credit queue served ahead of an inner data discipline.
// Credits for reverse-direction flows traverse this port and are paced so
// that credit-induced data cannot oversubscribe any link.
type XPassQdisc struct {
	cfg        XPassQdiscConfig
	credits    fifo
	nextCredit sim.Time // earliest instant the next credit may leave
	gap        sim.Duration
}

// NewXPassQdisc returns an ExpressPass port queue.
func NewXPassQdisc(cfg XPassQdiscConfig) *XPassQdisc {
	if cfg.CreditLimit <= 0 {
		cfg.CreditLimit = 15
	}
	if cfg.Data == nil {
		cfg.Data = NewQueue(1, 0, DefaultBuffer)
	}
	q := &XPassQdisc{cfg: cfg}
	q.gap = sim.TxTime(CreditSize, cfg.CreditRate)
	return q
}

// Data exposes the inner data discipline (for stats inspection).
func (q *XPassQdisc) Data() Qdisc { return q.cfg.Data }

// Enqueue implements Qdisc.
func (q *XPassQdisc) Enqueue(p *Packet, now sim.Time) DropReason {
	if p.Type == Credit {
		if q.credits.len() >= q.cfg.CreditLimit {
			return DropCreditOver
		}
		q.credits.push(p)
		return Queued
	}
	return q.cfg.Data.Enqueue(p, now)
}

// Dequeue implements Qdisc: a credit leaves whenever the shaper allows;
// otherwise the data queue is served. Shaping uses a one-credit-deep token
// so an idle period does not accumulate a credit burst.
func (q *XPassQdisc) Dequeue(now sim.Time) *Packet {
	if !q.credits.empty() && now >= q.nextCredit {
		p := q.credits.pop()
		q.nextCredit = now.Add(q.gap)
		return p
	}
	return q.cfg.Data.Dequeue(now)
}

// NextWake implements Qdisc: if only shaped credits are pending, the port
// must retry when the shaper releases the next one.
func (q *XPassQdisc) NextWake(now sim.Time) sim.Time {
	if !q.credits.empty() {
		if now >= q.nextCredit {
			return now
		}
		return q.nextCredit
	}
	return q.cfg.Data.NextWake(now)
}

// Backlog implements Qdisc.
func (q *XPassQdisc) Backlog() Backlog {
	b := q.cfg.Data.Backlog()
	b.Packets += q.credits.len()
	b.Bytes += q.credits.size()
	return b
}
