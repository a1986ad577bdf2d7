// Package stats collects and summarizes simulation results: flow completion
// times with size-bucketed percentiles and slowdowns, transfer efficiency,
// goodput, queue-length samplers and link-utilization meters — the metrics
// of §5.1 of the Aeolus paper.
package stats

import (
	"fmt"
	"math"
	"slices"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// FlowRecord captures one completed flow.
type FlowRecord struct {
	ID       uint64
	Size     int64        // application bytes
	Start    sim.Time     // injection instant
	Finish   sim.Time     // last payload byte delivered
	IdealFCT sim.Duration // FCT of the flow alone on its path
	Timeouts int          // retransmission timeouts the flow suffered
}

// FCT returns the flow completion time.
func (r *FlowRecord) FCT() sim.Duration { return r.Finish.Sub(r.Start) }

// Slowdown returns FCT normalized by the ideal FCT (≥ 1 in a correct run,
// up to rounding).
func (r *FlowRecord) Slowdown() float64 {
	if r.IdealFCT <= 0 {
		return 1
	}
	return float64(r.FCT()) / float64(r.IdealFCT)
}

// FCTCollector accumulates completed flows. A collector belongs to one
// simulation run (the harness builds one per Env) and is not safe for
// concurrent use; the filter and summary paths reuse internal scratch
// buffers so metric extraction does not grow the heap with the flow count.
type FCTCollector struct {
	records []FlowRecord

	// Scratch buffers reused across Filter/Summarize/CDF calls so the
	// metric-collection pass after a run allocates O(1) once warm. Their
	// contents are only valid until the next call that uses them.
	scratch []FlowRecord
	fctBuf  []sim.Duration
	slowBuf []float64
}

// Reserve pre-sizes the collector for n flows, so a run with a known trace
// length performs no append growth during the simulation. It never shrinks.
func (c *FCTCollector) Reserve(n int) {
	if n > cap(c.records)-len(c.records) {
		grown := make([]FlowRecord, len(c.records), len(c.records)+n)
		copy(grown, c.records)
		c.records = grown
	}
}

// Add records a completed flow.
func (c *FCTCollector) Add(r FlowRecord) { c.records = append(c.records, r) }

// Len returns the number of completed flows.
func (c *FCTCollector) Len() int { return len(c.records) }

// Records exposes the raw records (not a copy; do not mutate).
func (c *FCTCollector) Records() []FlowRecord { return c.records }

// Filter returns the records with minSize ≤ Size < maxSize. maxSize ≤ 0
// means unbounded. The returned slice aliases an internal scratch buffer:
// it is valid until the next Filter call and must not be mutated.
func (c *FCTCollector) Filter(minSize, maxSize int64) []FlowRecord {
	out := c.scratch[:0]
	for _, r := range c.records {
		if r.Size >= minSize && (maxSize <= 0 || r.Size < maxSize) {
			out = append(out, r)
		}
	}
	c.scratch = out
	return out
}

// Summarize digests a record set (typically c.Records or a Filter result)
// using the collector's scratch buffers, so repeated summaries allocate
// nothing once warm. The records need not belong to the collector.
func (c *FCTCollector) Summarize(records []FlowRecord) Summary {
	s, fcts, slows := summarizeInto(records, c.fctBuf, c.slowBuf)
	c.fctBuf, c.slowBuf = fcts, slows
	return s
}

// TimeoutFlows counts flows that suffered at least one timeout (Fig. 13).
func (c *FCTCollector) TimeoutFlows() int {
	n := 0
	for _, r := range c.records {
		if r.Timeouts > 0 {
			n++
		}
	}
	return n
}

// Summary is a digest of a set of FCT samples.
type Summary struct {
	N                              int
	Mean, P50, P90, P99, P999, Max sim.Duration
	MeanSlowdown, P99Slowdown      float64
}

// Summarize digests a record set. An empty set yields a zero Summary.
func Summarize(records []FlowRecord) Summary {
	s, _, _ := summarizeInto(records, nil, nil)
	return s
}

// summarizeInto is the shared summary kernel: it digests records using (and
// returning, for reuse) the provided scratch buffers.
func summarizeInto(records []FlowRecord, fcts []sim.Duration, slows []float64) (Summary, []sim.Duration, []float64) {
	if len(records) == 0 {
		return Summary{}, fcts, slows
	}
	if cap(fcts) < len(records) {
		fcts = make([]sim.Duration, len(records))
	} else {
		fcts = fcts[:len(records)]
	}
	if cap(slows) < len(records) {
		slows = make([]float64, len(records))
	} else {
		slows = slows[:len(records)]
	}
	var sumF float64
	var sumS float64
	for i, r := range records {
		fcts[i] = r.FCT()
		slows[i] = r.Slowdown()
		sumF += float64(fcts[i])
		sumS += slows[i]
	}
	slices.Sort(fcts)
	slices.Sort(slows)
	return Summary{
		N:            len(records),
		Mean:         sim.Duration(sumF / float64(len(records))),
		P50:          quantileDur(fcts, 0.50),
		P90:          quantileDur(fcts, 0.90),
		P99:          quantileDur(fcts, 0.99),
		P999:         quantileDur(fcts, 0.999),
		Max:          fcts[len(fcts)-1],
		MeanSlowdown: sumS / float64(len(records)),
		P99Slowdown:  quantileF(slows, 0.99),
	}, fcts, slows
}

// quantileDur returns the p-quantile of a sorted duration slice using the
// nearest-rank method.
func quantileDur(sorted []sim.Duration, p float64) sim.Duration {
	return sorted[rank(len(sorted), p)]
}

func quantileF(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)]
}

func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// FCTCDF returns the empirical CDF of FCTs as (fct, cumulative fraction)
// pairs, one per record, for plotting the paper's distribution figures.
func FCTCDF(records []FlowRecord) [][2]float64 {
	fcts := make([]float64, len(records))
	for i, r := range records {
		fcts[i] = r.FCT().Microseconds()
	}
	slices.Sort(fcts)
	out := make([][2]float64, len(fcts))
	for i, f := range fcts {
		out[i] = [2]float64{f, float64(i+1) / float64(len(fcts))}
	}
	return out
}

// ByteMeter tallies sent versus usefully delivered bytes, yielding the
// paper's transfer efficiency ("total received data bytes over total sent
// bytes", §2.3 footnote 5) and goodput.
type ByteMeter struct {
	SentPayload      int64 // payload bytes placed on the wire, retransmissions included
	DeliveredPayload int64 // unique payload bytes accepted by receivers
}

// Efficiency returns delivered/sent, or 1 when nothing was sent.
func (m *ByteMeter) Efficiency() float64 {
	if m.SentPayload == 0 {
		return 1
	}
	return float64(m.DeliveredPayload) / float64(m.SentPayload)
}

// Goodput returns the delivered payload rate over the given span as a
// fraction of capacity (aggregate receiver bandwidth).
func (m *ByteMeter) Goodput(span sim.Duration, capacity sim.Rate) float64 {
	if span <= 0 || capacity <= 0 {
		return 0
	}
	return float64(m.DeliveredPayload) * 8 / span.Seconds() / float64(capacity)
}

// QueueSampler periodically samples a queue backlog and keeps the mean and
// maximum (Fig. 15).
type QueueSampler struct {
	sum     float64
	n       int
	max     int64
	maxSeen int64
}

// Observe records one backlog sample in bytes.
func (s *QueueSampler) Observe(bytes int64) {
	s.sum += float64(bytes)
	s.n++
	if bytes > s.max {
		s.max = bytes
	}
}

// ObserveMax folds in an externally tracked high-water mark (queues track
// per-enqueue maxima, which sampling can miss).
func (s *QueueSampler) ObserveMax(bytes int64) {
	if bytes > s.maxSeen {
		s.maxSeen = bytes
	}
}

// Mean returns the average sampled backlog in bytes.
func (s *QueueSampler) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest backlog seen, combining samples and high-water
// marks.
func (s *QueueSampler) Max() int64 {
	if s.maxSeen > s.max {
		return s.maxSeen
	}
	return s.max
}

// UtilizationMeter measures the fraction of a link's capacity used over a
// window from transmitted-byte counters (Fig. 16).
type UtilizationMeter struct {
	startBytes int64
	startTime  sim.Time
}

// Start begins the window.
func (u *UtilizationMeter) Start(txBytes int64, now sim.Time) {
	u.startBytes, u.startTime = txBytes, now
}

// Stop ends the window and returns utilization in [0, ~1].
func (u *UtilizationMeter) Stop(txBytes int64, now sim.Time, rate sim.Rate) float64 {
	span := now.Sub(u.startTime)
	if span <= 0 {
		return 0
	}
	bits := float64(txBytes-u.startBytes) * 8
	return bits / (span.Seconds() * float64(rate))
}

// FormatDur renders a duration in microseconds with 2 decimals, the unit of
// every FCT table in the paper.
func FormatDur(d sim.Duration) string {
	return fmt.Sprintf("%.2f", d.Microseconds())
}
