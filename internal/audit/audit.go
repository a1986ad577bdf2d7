// Package audit is an opt-in packet-conservation checker for simulation
// runs: it attaches to the existing observability seams (the port and host
// taps and the ports' drop counters), follows every packet from injection to
// its terminal event, and verifies at drain time that the books balance.
//
// The invariants checked:
//
//  1. Conservation: every injected payload byte is accounted exactly once —
//     delivered, dropped (attributed to a netem.DropReason), trimmed, or
//     still sitting in a queue (residual). When the engine has no pending
//     events, residual must be zero and every port backlog empty.
//  2. Queue coherence: each port queue's cached byte counters match its
//     contents (netem.Queue.Audit), and the event engine's bookkeeping is
//     internally consistent (sim.Engine.CheckInvariants).
//  3. Delivery bounds: a flow's unique delivered payload never exceeds its
//     size; duplicates are legal only as explicit retransmissions.
//  4. Protocol state: the transport's own per-flow checks (each flow's
//     Aeolus state machine, core.PreCredit.Audit), handed in as errors.
//  5. Meter coherence: the transfer-efficiency meter's sent counter matches
//     the payload the fabric saw injected, and its delivered counter never
//     exceeds the unique payload the fabric delivered.
//  6. Pool coherence: every packet the pool ever created is live, in the
//     free-list, or was discarded while disabled (netem.PacketPool
//     .CheckCoherence); no packet is Put twice; and once the engine drains,
//     no packet remains live (a live packet at drain time was leaked by
//     whoever terminated it).
//
// The auditor deliberately depends only on netem and sim, so every
// transport package can be audited without import cycles.
package audit

import (
	"fmt"
	"strings"

	"github.com/aeolus-transport/aeolus/internal/flatmap"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// Violation is one invariant breach, structured so tests and tools can
// filter by check and locate the offending port or flow.
type Violation struct {
	Check  string // invariant identifier, e.g. "conservation", "qdisc-backlog"
	Where  string // port label, host, or subsystem
	Flow   uint64 // offending flow, 0 when not flow-specific
	Detail string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	s := v.Check
	if v.Where != "" {
		s += " at " + v.Where
	}
	if v.Flow != 0 {
		s += fmt.Sprintf(" flow=%d", v.Flow)
	}
	return s + ": " + v.Detail
}

// maxViolations bounds the report so a systemic breach doesn't flood memory;
// the count of suppressed violations is kept.
const maxViolations = 100

// Report is the outcome of an audited run.
type Report struct {
	Events           uint64 // packet events observed
	InjectedPayload  int64  // payload bytes first seen entering the fabric
	DeliveredPayload int64  // payload bytes handed to endpoints (incl. duplicates)
	UniquePayload    int64  // deduplicated delivered payload
	DroppedPayload   int64  // payload bytes on dropped packets
	TrimmedPayload   int64  // payload bytes cut by NDP trimming
	ResidualPayload  int64  // payload bytes still queued at audit time
	ForwardedPayload int64  // payload bytes handed to another shard's auditor
	ArrivedPayload   int64  // payload bytes handed in from another shard's auditor
	DropsByReason    [netem.NumDropReasons]uint64
	Pool             netem.PoolStats // packet-pool counters at audit time

	Violations []Violation
	Truncated  int // violations suppressed beyond maxViolations
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, or an error summarizing the
// violations (all of them, up to the report cap).
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s)", len(r.Violations)+r.Truncated)
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, "\n  ... %d more suppressed", r.Truncated)
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) add(v Violation) {
	if len(r.Violations) >= maxViolations {
		r.Truncated++
		return
	}
	r.Violations = append(r.Violations, v)
}

// AddViolation records an externally detected violation — the sharded
// harness uses it for the invariants only visible across shard reports
// (the cross-pool packet balance).
func (r *Report) AddViolation(v Violation) { r.add(v) }

// MergeReports combines per-shard reports into one run-wide view: the byte
// ledgers, event counts and pool counters sum, the violations concatenate
// (still capped), and the per-pool Live figure is recomputed from the summed
// hand-out/return counters — per-shard Live is meaningless under migration.
func MergeReports(reps []*Report) *Report {
	m := &Report{}
	for _, r := range reps {
		m.Events += r.Events
		m.InjectedPayload += r.InjectedPayload
		m.DeliveredPayload += r.DeliveredPayload
		m.UniquePayload += r.UniquePayload
		m.DroppedPayload += r.DroppedPayload
		m.TrimmedPayload += r.TrimmedPayload
		m.ResidualPayload += r.ResidualPayload
		m.ForwardedPayload += r.ForwardedPayload
		m.ArrivedPayload += r.ArrivedPayload
		for i, n := range r.DropsByReason {
			m.DropsByReason[i] += n
		}
		m.Pool.Allocated += r.Pool.Allocated
		m.Pool.Gets += r.Pool.Gets
		m.Pool.Puts += r.Pool.Puts
		m.Pool.InPool += r.Pool.InPool
		m.Pool.DoublePuts += r.Pool.DoublePuts
		for _, v := range r.Violations {
			m.add(v)
		}
		m.Truncated += r.Truncated
	}
	m.Pool.Live = m.Pool.Gets - m.Pool.Puts
	return m
}

// pktState follows one packet object through the fabric.
type pktState struct {
	payload   int // unaccounted payload bytes riding the packet
	flow      uint64
	seen      bool // slot-array presence marker (the map uses membership)
	isData    bool
	delivered bool
	dropped   bool
}

// flowAcct accumulates the byte ledger of one flow.
type flowAcct struct {
	size      int64 // -1 when the flow was never registered
	injected  int64
	delivered int64
	dropped   int64
	trimmed   int64
	residual  int64
	unique    int64
	forwarded int64   // handed across a shard boundary (outbound)
	arrived   int64   // handed in across a shard boundary (inbound)
	spans     []int64 // delivered byte ranges as flat sorted [s0,e0,s1,e1,...] pairs
}

// markRange records a delivery of payload bytes [start, end), reporting
// whether the range is new (the unique-payload case). Coverage is kept as
// merged half-open intervals, not a per-segment set: deliveries arrive
// overwhelmingly in offset order, so almost every flow carries exactly one
// span (16 bytes) for its whole life, where a map or sorted offset slice
// costs 8+ bytes per segment and dominated state_bytes_per_flow at scale.
// Out-of-order firsts open a second span that merges away when the gap
// fills. Segmentation is fixed per flow, so a range is either entirely
// inside one existing span (a duplicate) or entirely in a gap — partial
// overlap cannot occur, and the containment check only needs start.
func (fa *flowAcct) markRange(start, end int64) bool {
	s := fa.spans
	n := len(s)
	if n == 0 || start > s[n-1] {
		fa.spans = appendSpan(s, start, end)
		return true
	}
	if start == s[n-1] { // extends the last span in place
		s[n-1] = end
		return true
	}
	// Rightmost span whose start is <= start (span i occupies s[2i], s[2i+1]).
	lo, hi := 0, n/2
	for lo < hi {
		mid := (lo + hi) / 2
		if s[2*mid] <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if i >= 0 && start < s[2*i+1] {
		return false // inside span i: a duplicate delivery
	}
	// New range in a gap; splice it in, merging with adjacent neighbors.
	left := i >= 0 && s[2*i+1] == start
	right := s[2*(i+1)] == end // span i+1 exists: start was not past the tail
	switch {
	case left && right:
		s[2*i+1] = s[2*(i+1)+1]
		copy(s[2*(i+1):], s[2*(i+2):])
		fa.spans = s[:n-2]
	case left:
		s[2*i+1] = end
	case right:
		s[2*(i+1)] = start
	default:
		s = appendSpan(s, 0, 0)
		copy(s[2*(i+1)+2:], s[2*(i+1):])
		s[2*(i+1)], s[2*(i+1)+1] = start, end
		fa.spans = s
	}
	return true
}

// appendSpan appends one [start, end) pair with a 1.25x growth policy
// instead of append's doubling: tens of thousands of resident flows each
// carrying up to 2x slack is real memory, and the copies a slower growth
// costs are trivial at per-flow span counts.
func appendSpan(s []int64, start, end int64) []int64 {
	if len(s)+2 > cap(s) {
		grown := make([]int64, len(s), len(s)+len(s)/4+8)
		copy(grown, s)
		s = grown
	}
	return append(s, start, end)
}

// Auditor observes an instrumented network and checks the invariants. It
// implements netem.Tracer. Attach it before any traffic is injected; it is
// not safe for use from multiple goroutines (one auditor per run).
//
// The per-packet ledger is kept in a flatmap.Slab of ledger lines indexed
// by the packet's dense pool slot (netem.Packet.PoolSlot) whenever that key
// is valid: on a non-shared pool, slots name storage uniquely, so the Trace
// hot path is a block index instead of a pointer-keyed map probe. The slab
// carves lines as new slots appear, in runs of at most one pool chunk, so
// the ledger follows the pool's carve and growing it copies no entry.
// Packets without a slot (nil or disabled pools, hand-built fixtures) and
// every packet of a shared pool — where slots collide across the exchanging
// pools — fall back to the pointer-keyed map. Per-flow ledgers sit in a
// slab at the slots of a flat open-addressed index for the same reason, in
// runs of up to flowAcctChunk ledgers, so they never move either.
type Auditor struct {
	eng    *sim.Engine
	pool   *netem.PacketPool
	ports  []*netem.Port
	shared bool // pool exchanges packets with other shards' pools
	report Report

	slots     flatmap.Slab[ledgerLine]    // PoolSlot-indexed ledger (non-shared pools)
	pkts      map[*netem.Packet]*pktState // slot-less packets, shared pools
	flowIdx   flatmap.Index               // flow ID -> dense slot in flowAccts
	flowAccts flatmap.Slab[flowAcct]
	lastTime  sim.Time
	drops     uint64 // traced drops
}

// ledgerLine is the unit of the per-packet ledger's slab: 16 entries, so
// the slab's directory keeps one block pointer per 64 slots and stays in
// cache on the Trace path.
type ledgerLine [ledgerLineLen]pktState

const ledgerLineLen = 16

// entry returns the ledger entry of slot s, which the ledger has carved.
func (a *Auditor) entry(s int32) *pktState {
	return &a.slots.At(uint32(s) / ledgerLineLen)[uint32(s)%ledgerLineLen]
}

// slotOf returns the packet's dense ledger slot, or -1 when the packet must
// be tracked by pointer (no slab slot, or a shared pool whose slots collide
// with its peers').
func (a *Auditor) slotOf(p *netem.Packet) int32 {
	if a.shared {
		return -1
	}
	return p.PoolSlot()
}

// lookup returns the packet's existing ledger entry, or nil.
func (a *Auditor) lookup(p *netem.Packet) *pktState {
	if s := a.slotOf(p); s >= 0 {
		if int(s) >= a.slots.Cap()*ledgerLineLen {
			return nil
		}
		if st := a.entry(s); st.seen {
			return st
		}
		return nil
	}
	return a.pkts[p]
}

// ensure returns the packet's ledger entry, creating a zeroed one (with
// seen set) when absent; existed reports which.
func (a *Auditor) ensure(p *netem.Packet) (st *pktState, existed bool) {
	if s := a.slotOf(p); s >= 0 {
		for int(s) >= a.slots.Cap()*ledgerLineLen {
			a.slots.Grow(netem.PacketChunkSize / ledgerLineLen)
		}
		st = a.entry(s)
		existed = st.seen
		st.seen = true
		return st, existed
	}
	if st = a.pkts[p]; st != nil {
		return st, true
	}
	st = &pktState{seen: true}
	a.pkts[p] = st
	return st, false
}

// forget retires the packet's ledger entry (recycle, shard departure).
func (a *Auditor) forget(p *netem.Packet) {
	if s := a.slotOf(p); s >= 0 {
		if int(s) < a.slots.Cap()*ledgerLineLen {
			*a.entry(s) = pktState{}
		}
		return
	}
	delete(a.pkts, p)
}

// Attach instruments every port and host of the network. Call once, before
// traffic starts; the returned auditor observes the whole run.
func Attach(net *netem.Network) *Auditor {
	return AttachScope(net.Eng, net.Pool, net.AllPorts(), net.Hosts, false)
}

// AttachScope instruments an explicit slice of the fabric — one shard's
// engine, pool, ports and hosts — rather than a whole network. A sharded run
// attaches one auditor per shard: every port and host fires its events on
// exactly one shard's engine, so each auditor is driven by a single
// goroutine and the per-shard books stay lock-free. shared marks the pool as
// one of several exchanging packets across shard boundaries, which relaxes
// the drain-time pool checks to the forms that survive migration (the
// harness checks the cross-pool balance globally over the merged reports).
func AttachScope(eng *sim.Engine, pool *netem.PacketPool, ports []*netem.Port, hosts []*netem.Host, shared bool) *Auditor {
	a := &Auditor{
		eng:    eng,
		pool:   pool,
		ports:  ports,
		shared: shared,
		pkts:   make(map[*netem.Packet]*pktState),
	}
	netem.InstrumentPorts(ports, a)
	netem.InstrumentHosts(hosts, a)
	if pool != nil {
		pool.SetObserver(a)
	}
	return a
}

// Depart moves a packet's ledger entry to a shard boundary: its remaining
// unaccounted payload is booked as forwarded and the packet is forgotten, so
// it can neither show up as residual here nor be double-counted when the
// destination shard's auditor takes over. In a sharded run the departing
// shard calls it from its own Deliver (netem.Boundary), on its goroutine,
// before the window after the packet left. The destination may already
// hold the packet then, so Depart reads nothing of it: a shared auditor
// keys its ledger by the packet's address.
func (a *Auditor) Depart(p *netem.Packet) {
	st := a.lookup(p)
	if st == nil {
		return
	}
	fwd := st.isData && !st.delivered && !st.dropped && st.payload > 0
	payload, flow := st.payload, st.flow
	a.forget(p)
	if fwd {
		a.report.ForwardedPayload += int64(payload)
		a.flowOf(flow).forwarded += int64(payload)
	}
}

// Arrive registers a packet handed in from another shard: a fresh ledger
// entry seeded with the in-flight payload, booked as arrived rather than
// injected so the first local observation is not mistaken for an injection.
// Paired with the source auditor's Depart of the same handoff; the
// receiving shard calls it from its own Deliver.
func (a *Auditor) Arrive(p *netem.Packet) {
	st, _ := a.ensure(p)
	*st = pktState{seen: true, payload: p.PayloadLen, flow: p.Flow, isData: p.Type == netem.Data}
	if st.isData && st.payload > 0 {
		a.report.ArrivedPayload += int64(st.payload)
		a.flowOf(st.flow).arrived += int64(st.payload)
	}
}

// PoolGet implements netem.PoolObserver: a recycled pointer is a brand-new
// packet, so any ledger state keyed on the old occupant of that address is
// retired. (Its payload was fully accounted at the terminal event that
// preceded the Put.)
func (a *Auditor) PoolGet(p *netem.Packet, fresh bool) {
	if !fresh {
		a.forget(p)
	}
}

// PoolPut implements netem.PoolObserver: double-Puts become structured
// violations, and releasing a packet the fabric still considers in flight
// (no terminal event observed) is reported as a premature free.
func (a *Auditor) PoolPut(p *netem.Packet, firstPut bool) {
	if !firstPut {
		a.report.add(Violation{Check: "pool-double-put", Flow: p.Flow,
			Detail: fmt.Sprintf("packet %v returned to the pool twice", p)})
		return
	}
	if st := a.lookup(p); st != nil && !st.delivered && !st.dropped {
		a.report.add(Violation{Check: "pool-put-live", Flow: st.flow,
			Detail: fmt.Sprintf("packet %v released without a terminal event", p)})
	}
}

// RegisterFlow declares a flow's payload size so delivery-bound checks have
// a reference. Unregistered flows are still conservation-checked, but their
// size-dependent invariants are skipped.
func (a *Auditor) RegisterFlow(id uint64, size int64) { a.putFlow(id, size) }

// flowOf returns the flow's ledger, materializing an unregistered flow with
// unknown size.
func (a *Auditor) flowOf(id uint64) *flowAcct { return a.putFlow(id, -1) }

// flowAcctChunk is the largest run of ledgers the flow slab carves at once,
// the run rdbase.FlowTable carves its per-flow values in.
const flowAcctChunk = 32

// putFlow returns the flow's ledger, materializing it with the given size
// when the flow is new. Index slots are dense and issued in order, so a new
// flow's slot is at most the first one past the slab's carve.
func (a *Auditor) putFlow(id uint64, size int64) *flowAcct {
	slot, added := a.flowIdx.Put(id)
	if added && int(slot) == a.flowAccts.Cap() {
		a.flowAccts.Grow(flowAcctChunk)
	}
	fa := a.flowAccts.At(slot)
	if added {
		fa.size = size
	}
	return fa
}

// Trace implements netem.Tracer: the per-packet ledger.
func (a *Auditor) Trace(now sim.Time, ev netem.TraceEvent, where string, p *netem.Packet) {
	a.report.Events++
	if now < a.lastTime {
		a.report.add(Violation{Check: "monotonic-time", Where: where, Flow: p.Flow,
			Detail: fmt.Sprintf("event at %v after observing %v", now, a.lastTime)})
	} else {
		a.lastTime = now
	}

	st, seen := a.ensure(p)
	if !seen {
		// First observation is the injection: the packet enters the fabric
		// carrying its payload (zero for control packets).
		st.payload, st.flow, st.isData = p.PayloadLen, p.Flow, p.Type == netem.Data
		st.delivered, st.dropped = false, false
		if st.isData {
			a.report.InjectedPayload += int64(st.payload)
			a.flowOf(p.Flow).injected += int64(st.payload)
		}
	}

	switch ev {
	case netem.TraceEnqueue:
		if st.delivered || st.dropped {
			a.report.add(Violation{Check: "reuse-after-terminal", Where: where, Flow: p.Flow,
				Detail: fmt.Sprintf("packet %v enqueued after its terminal event", p)})
		}
	case netem.TraceTrim:
		// Payload cut in place; the 64-byte header travels on.
		if st.isData {
			a.report.TrimmedPayload += int64(st.payload)
			a.flowOf(st.flow).trimmed += int64(st.payload)
			st.payload = 0
		}
	case netem.TraceDrop:
		a.drops++
		if st.dropped {
			a.report.add(Violation{Check: "double-drop", Where: where, Flow: p.Flow,
				Detail: fmt.Sprintf("packet %v dropped twice", p)})
			return
		}
		if st.delivered {
			a.report.add(Violation{Check: "drop-after-deliver", Where: where, Flow: p.Flow,
				Detail: fmt.Sprintf("packet %v dropped after delivery", p)})
			return
		}
		st.dropped = true
		if st.isData {
			a.report.DroppedPayload += int64(st.payload)
			a.flowOf(st.flow).dropped += int64(st.payload)
			st.payload = 0
		}
	case netem.TraceDeliver:
		if st.delivered {
			a.report.add(Violation{Check: "double-deliver", Where: where, Flow: p.Flow,
				Detail: fmt.Sprintf("packet %v delivered twice", p)})
			return
		}
		if st.dropped {
			a.report.add(Violation{Check: "deliver-after-drop", Where: where, Flow: p.Flow,
				Detail: fmt.Sprintf("packet %v delivered after being dropped", p)})
			return
		}
		st.delivered = true
		if !st.isData {
			return
		}
		fa := a.flowOf(st.flow)
		a.report.DeliveredPayload += int64(st.payload)
		fa.delivered += int64(st.payload)
		if fa.size >= 0 && p.Seq+int64(st.payload) > fa.size {
			a.report.add(Violation{Check: "beyond-size", Where: where, Flow: p.Flow,
				Detail: fmt.Sprintf("payload [%d, %d) outside flow of %d bytes",
					p.Seq, p.Seq+int64(st.payload), fa.size)})
		}
		if st.payload > 0 && fa.markRange(p.Seq, p.Seq+int64(st.payload)) {
			fa.unique += int64(st.payload)
			a.report.UniquePayload += int64(st.payload)
		}
		st.payload = 0
	}
}

// AuditProtocol reports each breach the transport's own invariant checks
// found (transport.Protocol.AuditInvariants).
func (a *Auditor) AuditProtocol(errs []error) {
	for _, err := range errs {
		a.report.add(Violation{Check: "protocol-state", Detail: err.Error()})
	}
}

// CheckMeter cross-checks the transport-layer byte meter against the
// fabric-level ledger: every metered send must have reached a NIC queue, and
// the meter can never claim more unique delivery than the fabric performed.
// (It may claim less: ExpressPass only credits payload that arrived before
// flow establishment once the flow establishes.)
func (a *Auditor) CheckMeter(sentPayload, deliveredPayload int64) {
	if sentPayload != a.report.InjectedPayload {
		a.report.add(Violation{Check: "meter-sent",
			Detail: fmt.Sprintf("meter counted %d payload bytes sent, fabric saw %d injected",
				sentPayload, a.report.InjectedPayload)})
	}
	if deliveredPayload > a.report.UniquePayload {
		a.report.add(Violation{Check: "meter-delivered",
			Detail: fmt.Sprintf("meter counted %d payload bytes delivered, fabric delivered %d unique",
				deliveredPayload, a.report.UniquePayload)})
	}
}

// Finish runs the drain-time checks and returns the final report. Call it
// once, after the engine stops.
func (a *Auditor) Finish() *Report {
	if err := a.eng.CheckInvariants(); err != nil {
		a.report.add(Violation{Check: "engine-state", Detail: err.Error()})
	}

	// Queue-counter coherence and, when fully drained, empty backlogs.
	drained := a.eng.Pending() == 0
	var backlog int64
	for _, pt := range a.ports {
		if err := pt.Q.Audit(); err != nil {
			a.report.add(Violation{Check: "qdisc-backlog", Where: pt.Label, Detail: err.Error()})
		}
		backlog += pt.Q.Backlog().Bytes
	}
	if drained && backlog != 0 {
		a.report.add(Violation{Check: "drain",
			Detail: fmt.Sprintf("engine idle but %d bytes remain queued", backlog)})
	}

	// Residual payload: packets that saw no terminal event are still queued
	// somewhere (or were leaked — the drain check above distinguishes).
	// Every data flow was materialized at injection (or arrival), so these
	// flowOf calls never add flows and the accumulation order is irrelevant
	// (sums only).
	residual := func(st *pktState) {
		if !st.seen || st.delivered || st.dropped || !st.isData || st.payload == 0 {
			return
		}
		a.report.ResidualPayload += int64(st.payload)
		a.flowOf(st.flow).residual += int64(st.payload)
	}
	for i := 0; i < a.slots.Cap(); i++ {
		line := a.slots.At(uint32(i))
		for j := range line {
			residual(&line[j])
		}
	}
	for _, st := range a.pkts {
		residual(st)
	}
	if drained && a.report.ResidualPayload != 0 {
		a.report.add(Violation{Check: "residual",
			Detail: fmt.Sprintf("engine idle but %d payload bytes unaccounted", a.report.ResidualPayload)})
	}

	// Per-flow conservation and delivery bounds, in first-seen flow order.
	// Shard boundaries extend the identity symmetrically: payload handed in
	// (arrived) is an input like injection, payload handed out (forwarded) an
	// output like delivery — so the check closes per shard, and summing the
	// per-shard ledgers closes globally because every Depart pairs with an
	// Arrive of the same handoff.
	for slot, id := range a.flowIdx.Keys() {
		fa := a.flowAccts.At(uint32(slot))
		got := fa.delivered + fa.dropped + fa.trimmed + fa.residual + fa.forwarded
		if want := fa.injected + fa.arrived; got != want {
			a.report.add(Violation{Check: "conservation", Flow: id,
				Detail: fmt.Sprintf("injected %d + arrived %d bytes but accounted %d (delivered %d + dropped %d + trimmed %d + residual %d + forwarded %d)",
					fa.injected, fa.arrived, got, fa.delivered, fa.dropped, fa.trimmed, fa.residual, fa.forwarded)})
		}
		if fa.size >= 0 && fa.unique > fa.size {
			a.report.add(Violation{Check: "delivery-bound", Flow: id,
				Detail: fmt.Sprintf("delivered %d unique bytes of a %d-byte flow", fa.unique, fa.size)})
		}
	}

	// Pool coherence: the pool's own conservation identity must hold, and a
	// drained engine means every packet terminated — so none may be live.
	// A shared (sharded) pool exchanges packets with its peers, so only the
	// migration-proof checks apply per pool; the hand-out/return balance is
	// checked globally by the harness over the merged reports.
	if pp := a.pool; pp != nil {
		if a.shared {
			if err := pp.CheckCoherenceShared(); err != nil {
				a.report.add(Violation{Check: "pool-coherence", Detail: err.Error()})
			}
		} else {
			if err := pp.CheckCoherence(); err != nil {
				a.report.add(Violation{Check: "pool-coherence", Detail: err.Error()})
			}
			if live := pp.Live(); drained && live != 0 {
				a.report.add(Violation{Check: "pool-leak",
					Detail: fmt.Sprintf("engine idle but %d packets still live (never returned to the pool)", live)})
			}
		}
		a.report.Pool = pp.Stats()
	}

	// Port.Send traces and counts every refusal, so traced drops that disagree
	// with the port counters mean a counter moved outside Send or a lost tap.
	a.report.DropsByReason = netem.DropTotals(a.ports)
	var counted uint64
	for _, n := range a.report.DropsByReason {
		counted += n
	}
	if counted != a.drops {
		a.report.add(Violation{Check: "drop-count",
			Detail: fmt.Sprintf("tracer saw %d drops, port counters report %d", a.drops, counted)})
	}
	return &a.report
}
