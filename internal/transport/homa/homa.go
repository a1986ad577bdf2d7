// Package homa implements the Homa proactive transport [Montazeri, Li,
// Alizadeh, Ousterhout, SIGCOMM'18] on the netem fabric, with an optional
// Aeolus layer (§5.3 of the Aeolus paper).
//
// Homa is message-based and receiver-driven: a sender blindly transmits the
// first RTTbytes of a message as unscheduled packets, at a priority chosen
// from workload-derived cutoffs; the receiver then paces the remainder with
// grants, keeping at most Overcommit messages granted concurrently and one
// RTTbytes of grants outstanding per message, at dynamically assigned
// scheduled priorities. Original Homa runs over 8 strict priority queues
// and prioritizes unscheduled packets *over* scheduled ones; loss recovery
// is a receiver-side retransmission timeout.
//
// With Aeolus enabled, the priority queues remain but every port applies
// selective dropping at port granularity (the paper's "per-port ECN/RED"
// testbed configuration): unscheduled packets burst at line rate but are
// dropped once the port's backlog passes the threshold, scheduled packets
// are protected, per-packet ACKs plus the end-of-burst probe locate
// first-RTT losses, and grants retransmit them as scheduled packets in the
// §3.3 priority order.
//
// The package is a policy layer: each message's sender is the Aeolus machine
// (internal/core.PreCredit), which builds and sends the message's packets at
// the priorities this file picks, and the shared receiver-driven substrate
// (internal/transport/rdbase) owns reassembly and the RTO lifecycle; this
// file owns priority selection and the SRPT grant scheduler.
package homa

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/transport/rdbase"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// Options configures Homa.
type Options struct {
	// Aeolus enables and configures the pre-credit building block.
	Aeolus core.Options

	// Overcommit is the receiver's degree of overcommitment: how many
	// messages may hold outstanding grants at once (paper default 6).
	Overcommit int

	// NumPrios is the number of fabric priority levels (paper default 8).
	NumPrios int

	// UnschedPrios is how many of the highest levels serve unscheduled
	// packets (Homa's default split: 4 unscheduled over 4 scheduled).
	UnschedPrios int

	// RTTBytes is the unscheduled first-window per message; 0 derives it
	// from the network BDP.
	RTTBytes int64

	// RTO is the receiver-side retransmission timeout (10 ms for original
	// Homa in the paper's experiments; 20 µs for "eager" Homa; 40 µs in the
	// Fig. 17 incast study). Zero disables timeout recovery.
	RTO sim.Duration

	// Spray enables per-packet multipath spraying for data packets. Homa's
	// evaluations assume a congestion-free, load-balanced core (§6 of the
	// Aeolus paper); per-flow ECMP would instead create core hot spots that
	// drop scheduled packets. Default true via DefaultOptions.
	Spray bool

	// Seed randomizes spraying.
	Seed uint64

	// Workload sets the size distribution used to derive unscheduled
	// priority cutoffs. Nil falls back to even log-spaced cutoffs.
	Workload *workload.CDF
}

// DefaultOptions returns the paper's §5.1 Homa defaults (Aeolus disabled).
func DefaultOptions() Options {
	return Options{
		Overcommit:   6,
		NumPrios:     8,
		UnschedPrios: 4,
		RTO:          10 * sim.Millisecond,
		Spray:        true,
	}
}

// QueueFactory returns the fabric discipline: 8 strict priorities with a
// shared buffer, plus per-port selective dropping for Homa+Aeolus — the
// paper's configuration keeps Homa's priority queues ("for Homa, we
// configure per-port ECN/RED", §5.1). Host NICs get an unbounded variant of
// the same bands so local ordering matches the fabric's.
func QueueFactory(opts Options, bufferBytes int64) netem.QueueFactory {
	var threshold int64
	if opts.Aeolus.Enabled {
		threshold = opts.Aeolus.ThresholdBytes
	}
	return func(kind netem.PortKind, rate sim.Rate) *netem.Queue {
		if kind == netem.HostNIC {
			return netem.NewQueue(opts.NumPrios, 0, 0) // unbounded host queue
		}
		return netem.NewQueue(opts.NumPrios, threshold, bufferBytes)
	}
}

// Protocol is the Homa implementation. One instance drives all hosts.
type Protocol struct {
	env  *transport.Env
	opts Options
	rng  *rand.Rand // draws each sprayed packet's path; nil when Spray is off

	rttBytes int64
	cutoffs  []int64

	tbl     rdbase.Tables[sender]
	rxHosts rdbase.HostMap[rxHost]
	missing []int // the receivers' scratch for loss scans
}

// New builds the protocol and attaches it to every host of the environment.
func New(env *transport.Env, opts Options) *Protocol {
	if opts.Overcommit <= 0 {
		opts.Overcommit = 6
	}
	if opts.NumPrios <= 0 {
		opts.NumPrios = 8
	}
	if opts.UnschedPrios <= 0 || opts.UnschedPrios >= opts.NumPrios {
		opts.UnschedPrios = opts.NumPrios / 2
	}
	p := &Protocol{
		env: env, opts: opts,
		rttBytes: opts.RTTBytes,
		tbl:      rdbase.NewTables[sender](),
	}
	if opts.Spray {
		p.rng = sim.NewRand(opts.Seed, 0x40a1)
	}
	p.rxHosts = rdbase.NewHostMap(func(host netem.NodeID) *rxHost {
		return &rxHost{p: p, host: host}
	})
	if p.rttBytes <= 0 {
		p.rttBytes = env.Net.BDPBytes()
	}
	if opts.Workload != nil {
		p.cutoffs = UnschedCutoffs(opts.Workload, p.rttBytes, opts.UnschedPrios)
	} else {
		// Log-spaced fallback cutoffs.
		p.cutoffs = make([]int64, opts.UnschedPrios)
		c := p.rttBytes / 8
		for i := range p.cutoffs {
			p.cutoffs[i] = c
			c *= 8
		}
		p.cutoffs[opts.UnschedPrios-1] = 1 << 62
	}
	for _, h := range env.Net.EndpointHosts() {
		h.EP = &endpoint{p: p, host: h.ID}
	}
	return p
}

// Register records a flow without starting a sender — the receiver-shard
// half of a cross-shard flow (see expresspass.Protocol.Register).
func (p *Protocol) Register(f *transport.Flow) { p.tbl.AddFlow(f) }

// Start implements transport.Protocol.
func (p *Protocol) Start(f *transport.Flow) {
	p.tbl.AddFlow(f)
	s := p.tbl.AddSender(f.ID)
	s.init(p, f)
	s.Start()
}

type endpoint struct {
	p    *Protocol
	host netem.NodeID
}

// Receive implements netem.Endpoint.
func (ep *endpoint) Receive(pkt *netem.Packet) {
	switch pkt.Type {
	case netem.Data, netem.Probe:
		ep.p.rxHosts.Get(ep.host).receive(pkt)
	case netem.Grant, netem.Ack, netem.Resend:
		if s := ep.p.tbl.Sender(pkt.Flow); s != nil {
			s.receive(pkt)
		}
	}
}

// sender is the per-message sender state: the Aeolus sender plus Homa's
// grant-quota accounting. Its data packets carry the message's unscheduled
// priority (set at init from the cutoffs) or the latest grant's scheduled
// one.
type sender struct {
	core.PreCredit
	p *Protocol

	quota      int64 // granted bytes not yet spent
	maxGrant   int64 // highest grant offset accounted so far
	grantBased bool  // maxGrant baselined to the end of the burst
}

// init wires a zeroed sender slot (from the packed sender table) for a flow.
func (s *sender) init(p *Protocol, f *transport.Flow) {
	s.p = p
	// The pre-credit burst is Homa's own unscheduled first window, so it is
	// active in both modes; the probe/ACK machinery only with Aeolus.
	opts := p.opts.Aeolus
	opts.Enabled = true
	s.Init(p.env, f, opts, p.rttBytes)
	s.Spray, s.UnschedPrio = p.rng, PrioFor(p.cutoffs, f.Size)
	if !p.opts.Aeolus.Enabled {
		// Original Homa has no probe and no per-packet ACKs: the burst is
		// presumed delivered and losses surface only via the receiver RTO.
		s.DisableProbe()
	}
}

func (s *sender) receive(pkt *netem.Packet) {
	switch pkt.Type {
	case netem.Grant:
		s.onGrant(pkt.Seq, uint8(pkt.Meta))
	case netem.Ack:
		if s.OnAckPacket(pkt) {
			s.drainQuota()
		}
	case netem.Resend:
		for _, seg := range pkt.SegList {
			s.ForceLost(int(seg))
		}
		// Homa retransmits resend-requested packets immediately at the
		// granted priority, without waiting for fresh grants.
		s.DrainLost()
	}
}

func (s *sender) onGrant(offset int64, prio uint8) {
	s.StopBurst()
	s.SchedPrio = prio
	if !s.grantBased {
		// Grants are absolute offsets; the unscheduled burst already
		// covered everything below its end, so quota starts there.
		s.grantBased = true
		s.maxGrant = s.ProbeSeq()
	}
	if offset > s.maxGrant {
		s.quota += offset - s.maxGrant
		s.maxGrant = offset
	}
	s.drainQuota()
}

// drainQuota spends granted bytes on the next transmissions in the §3.3
// priority order (Aeolus) or on unsent payload (original Homa, where the
// ClassUnacked sweep is disabled so only ClassUnsent and forced losses
// fire). Retransmissions consume grant quota like any scheduled packet —
// that is what keeps them paced and loss-free; the receiver extends its
// grant cap beyond the message size to cover the holes it observes below
// the burst end once the probe arrives.
func (s *sender) drainQuota() {
	for s.quota > 0 {
		seg, class := s.Spend()
		if class == core.ClassNone {
			return
		}
		s.quota -= int64(s.Seg.SegLen(seg))
	}
}

// rxMsg is the receiver-side state of one incoming message.
type rxMsg struct {
	rx         rdbase.Rx
	granted    int64 // highest grant offset sent
	burstEnd   int64 // estimated end of the sender's unscheduled burst
	probeSeen  bool  // burstEnd finalized by the probe
	lostBytes  int64 // burst bytes lost, latched once when the probe arrives
	schedBytes int64 // unique bytes delivered by scheduled packets
	host       *rxHost
}

func (m *rxMsg) remaining() int64 { return m.rx.Flow.Size - m.rx.Bytes() }

// wantGrant computes the receiver's grant offset for this message. Grants
// are self-clocked by *scheduled* progress: the sender may have one RTTbytes
// of scheduled data outstanding beyond its burst end, and the total
// scheduled demand is the payload past the burst plus the retransmission of
// every hole the receiver observes below it (known exactly once the probe
// arrives). This keeps retransmissions paced — and therefore protected —
// without ever stalling on losses.
func (m *rxMsg) wantGrant(rttBytes int64) int64 {
	need := m.rx.Flow.Size - m.burstEnd
	if need < 0 {
		need = 0
	}
	// The retransmission demand is latched once at probe arrival: holes are
	// filled by scheduled packets, which also advance schedBytes, so
	// recomputing the holes here would let every retransmission cancel its
	// own grant and strand the tail of the message.
	need += m.lostBytes
	window := m.schedBytes + rttBytes
	if window > need {
		window = need
	}
	return m.burstEnd + window
}

// rxHost is the per-receiving-host message scheduler: it tracks all incoming
// messages and runs the SRPT grant policy with overcommitment. Messages live
// packed in a FlowTable slab; the scheduler walks them by dense slot.
type rxHost struct {
	p    *Protocol
	host netem.NodeID
	msgs rdbase.FlowTable[rxMsg]

	sched []*rxMsg // scratch for the grant scheduler's active set
}

func (r *rxHost) receive(pkt *netem.Packet) {
	m := r.msgs.Get(pkt.Flow)
	if m == nil {
		f := r.p.tbl.Flow(pkt.Flow)
		if f == nil {
			return
		}
		m, _ = r.msgs.Put(pkt.Flow)
		m.host = r
		m.rx.Env = r.p.env
		m.rx.Flow = f
		m.rx.Track()
		m.rx.RTO.Init(r.p.env.Eng, r.p.opts.RTO, m.rtoExpire)
		m.rx.RTO.Arm()
	}
	if m.rx.Done {
		return
	}
	m.rx.RTO.Touch()
	switch pkt.Type {
	case netem.Probe:
		m.burstEnd = pkt.Seq
		if !m.probeSeen {
			m.probeSeen = true
			// The fabric is in-order per flow, so every unscheduled packet
			// that survived has arrived before its trailing probe: the holes
			// below the burst end are exactly the selective-dropping losses.
			if m.burstEnd > 0 {
				seg := m.rx.Seg()
				last := seg.SegOf(m.burstEnd - 1)
				r.p.missing = m.rx.Missing(last+1, r.p.missing[:0])
				for _, i := range r.p.missing {
					m.lostBytes += int64(seg.SegLen(i))
				}
			}
		}
		m.rx.SendAck(pkt.Seq, core.ProbeAckMark)
	case netem.Data:
		if !pkt.Scheduled && r.p.opts.Aeolus.Enabled {
			m.rx.SendAck(pkt.Seq, 0)
		}
		if !pkt.Scheduled && !m.probeSeen {
			// Track the burst extent until the probe pins it exactly.
			if end := pkt.Seq + int64(pkt.PayloadLen); end > m.burstEnd {
				m.burstEnd = end
			}
		}
		if n := m.rx.Accept(pkt.Seq); n > 0 && pkt.Scheduled {
			m.schedBytes += int64(n)
		}
		if m.rx.Complete() {
			// Mark done but keep the entry: a late duplicate (a spurious
			// retransmission still in flight) must find the tombstone, not
			// recreate the message and arm a ghost RTO.
			m.rx.Done = true
			m.rx.RTO.Stop()
			r.p.env.FlowDone(m.rx.Flow)
		}
	}
	r.schedule()
}

// schedule runs Homa's grant policy: the Overcommit messages with the least
// remaining bytes hold grants; each is granted up to received + RTTbytes;
// the k-th ranked granted message transmits at the k-th scheduled priority.
func (r *rxHost) schedule() {
	active := r.sched[:0]
	for i, n := 0, r.msgs.Len(); i < n; i++ {
		m := r.msgs.At(i)
		// Messages longer than the unscheduled window need grants; shorter
		// ones join the granted set only once a probe reveals holes that
		// must be retransmitted through scheduled packets.
		if !m.rx.Done && (m.rx.Flow.Size > r.p.rttBytes || m.burstEnd > 0) {
			active = append(active, m)
		}
	}
	r.sched = active
	if len(active) == 0 {
		return
	}
	// Flow IDs are unique, so the order is total and the permutation is the
	// same whatever the sort; SortFunc, unlike sort.Slice, allocates nothing.
	slices.SortFunc(active, func(a, b *rxMsg) int {
		return cmp.Or(cmp.Compare(a.remaining(), b.remaining()), cmp.Compare(a.rx.Flow.ID, b.rx.Flow.ID))
	})
	k := r.p.opts.Overcommit
	if k > len(active) {
		k = len(active)
	}
	for rank := 0; rank < k; rank++ {
		m := active[rank]
		// The rank-th granted message transmits at the rank-th scheduled
		// priority level (shorter remaining → higher priority).
		prio := r.p.opts.UnschedPrios + rank
		if prio >= r.p.opts.NumPrios {
			prio = r.p.opts.NumPrios - 1
		}
		want := m.wantGrant(r.p.rttBytes)
		if want > m.granted {
			m.granted = want
			m.rx.SendCtrl(netem.Grant, want, int64(prio))
		}
	}
}

// rtoExpire is Homa's timeout recovery policy: request every missing
// segment below the highest expectation — the unscheduled window plus
// whatever was granted. Idle detection, the done guard and rearming live in
// rdbase.RTO.
func (m *rxMsg) rtoExpire() {
	r := m.host
	m.rx.Flow.Timeouts++
	expect := r.p.rttBytes
	if m.granted > expect {
		expect = m.granted
	}
	if expect > m.rx.Flow.Size {
		expect = m.rx.Flow.Size
	}
	n := m.rx.Seg().SegOf(expect - 1)
	if r.p.missing = m.rx.Missing(n+1, r.p.missing[:0]); len(r.p.missing) > 0 {
		m.rx.SendResend(r.p.missing)
	}
}

// AuditInvariants checks every message's Aeolus state machine for internal
// consistency, returning one error per violation in flow-ID order.
func (p *Protocol) AuditInvariants() []error {
	return rdbase.AuditPreCredits("homa", p.tbl.Senders())
}

// Footprint implements transport.FootprintReporter: resident flow
// descriptors, sender machines and per-message receiver state across every
// materialized host scheduler.
func (p *Protocol) Footprint() transport.Footprint {
	flows, senders := p.tbl.Len()
	fp := transport.Footprint{Flows: flows, Senders: senders}
	p.rxHosts.Each(func(_ netem.NodeID, r *rxHost) { fp.Receivers += r.msgs.Len() })
	return fp
}
