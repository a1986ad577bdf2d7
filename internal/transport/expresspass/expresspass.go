// Package expresspass implements the ExpressPass proactive transport
// [Cho, Jang, Han, SIGCOMM'17] on the netem fabric, with an optional Aeolus
// layer (§5.2 of the Aeolus paper).
//
// ExpressPass is receiver-driven: a sender asks for credits; the receiver
// paces 84-byte credit packets toward the sender; each arriving credit
// authorizes one maximum-size (1538 B) scheduled data frame. Credits are
// rate-limited at every port by the fabric (netem.Queue.WithCredits), so
// the data they trigger can never oversubscribe a link; credits dropped by
// the shaper feed the receiver's credit feedback control, which adjusts the
// per-flow credit rate between 1/16 and 1.0 of the link.
//
// Vanilla ExpressPass sends no payload in the first RTT ("waiting credits",
// Fig. 1a). With Aeolus enabled, the sender bursts one BDP of unscheduled
// packets at line rate alongside the credit request, a probe trails the
// burst, the receiver ACKs each unscheduled arrival, and first-RTT losses
// are retransmitted through subsequent credits in the §3.3 priority order.
//
// The package is a policy layer: each flow's sender is the Aeolus machine
// (internal/core.PreCredit), which builds and sends the flow's packets, and
// the shared receiver-driven substrate (internal/transport/rdbase) owns
// reassembly and the RTO lifecycle; this file owns credit pacing and the
// feedback control.
package expresspass

import (
	"math/rand/v2"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/transport/rdbase"
)

// Options configures ExpressPass.
type Options struct {
	// Aeolus enables and configures the pre-credit building block.
	Aeolus core.Options

	// InitRate is the initial per-flow credit rate as a fraction of the
	// edge link (paper default 1/16).
	InitRate float64

	// Aggressiveness is the feedback-control aggressiveness factor ω
	// (paper default 1/16).
	Aggressiveness float64

	// TargetLoss is the credit-loss target of the feedback loop.
	TargetLoss float64

	// RTO is the receiver-driven retransmission timeout recovering lost
	// scheduled packets (rare in ExpressPass; essential for the Table 4/5
	// priority-queueing comparisons). Zero disables it.
	RTO sim.Duration

	// RTOOnly disables the Aeolus probe/per-packet-ACK loss detection while
	// keeping the pre-credit burst: first-RTT losses are then recovered
	// solely by the RTO. This models the priority-queueing alternative of
	// §5.5/Table 4, whose trapped-vs-lost ambiguity forces exactly this
	// timeout-based recovery.
	RTOOnly bool

	// Seed randomizes credit pacing jitter.
	Seed uint64
}

// DefaultOptions returns the paper's §5.1 defaults (Aeolus disabled).
func DefaultOptions() Options {
	return Options{
		InitRate:       1.0 / 16,
		Aggressiveness: 1.0 / 16,
		TargetLoss:     0.125,
		RTO:            10 * sim.Millisecond,
	}
}

// QueueFactory returns the fabric discipline for an ExpressPass network:
// per-port shaped credit bands over drop-tail data FIFOs, with a selective
// dropping threshold under Aeolus.
func QueueFactory(opts Options, bufferBytes int64) netem.QueueFactory {
	var threshold int64
	if opts.Aeolus.Enabled {
		threshold = opts.Aeolus.ThresholdBytes
	}
	return withCredits(func() *netem.Queue { return netem.NewQueue(1, threshold, bufferBytes) })
}

// withCredits builds an ExpressPass fabric whose switch ports queue data in
// the queue mk builds. Every port takes credits in a shaped front band, and
// host NICs always get an unbounded scheduled-first data queue, so
// pre-credit bursts never block a sender's own scheduled packets or
// outgoing credits.
func withCredits(mk func() *netem.Queue) netem.QueueFactory {
	return func(kind netem.PortKind, rate sim.Rate) *netem.Queue {
		if kind == netem.HostNIC {
			return netem.NewSchedFirstQueue(0).WithCredits(rate)
		}
		return mk().WithCredits(rate)
	}
}

// Protocol is the ExpressPass implementation. One instance drives all hosts.
type Protocol struct {
	env  *transport.Env
	opts Options
	rng  *rand.Rand

	tbl       rdbase.Tables[sender]
	receivers rdbase.FlowTable[receiver]
	missing   []int // the receivers' scratch for loss scans

	// WastedCredits counts credits that arrived at a sender with nothing
	// left to send.
	WastedCredits uint64
}

// New builds the protocol and attaches it to every host of the environment.
func New(env *transport.Env, opts Options) *Protocol {
	p := &Protocol{
		env: env, opts: opts,
		rng: sim.NewRand(opts.Seed, 0xE9),
		tbl: rdbase.NewTables[sender](),
	}
	for _, h := range env.Net.EndpointHosts() {
		h.EP = &endpoint{p: p}
	}
	return p
}

// Register records a flow without starting a sender. The sharded harness
// calls it on the receiver shard's protocol instance (when the receiver
// lives on a different shard than the sender) so arriving packets can
// resolve the flow; on sequential runs Start's own AddFlow covers it.
func (p *Protocol) Register(f *transport.Flow) { p.tbl.AddFlow(f) }

// Start implements transport.Protocol.
func (p *Protocol) Start(f *transport.Flow) {
	p.tbl.AddFlow(f)
	s := p.tbl.AddSender(f.ID)
	s.init(p, f)
	s.start()
}

// endpoint demultiplexes packets at a host to the per-flow state machines.
type endpoint struct{ p *Protocol }

// Receive implements netem.Endpoint.
func (ep *endpoint) Receive(pkt *netem.Packet) {
	p := ep.p
	switch pkt.Type {
	case netem.CreditReq, netem.Data, netem.Probe, netem.CtrlOther:
		r, added := p.receivers.Put(pkt.Flow)
		if added {
			r.init(p, pkt.Flow)
		}
		r.receive(pkt)
	case netem.Credit, netem.Ack, netem.Resend:
		if s := p.tbl.Sender(pkt.Flow); s != nil {
			s.receive(pkt)
		}
	}
}

// sender is the per-flow sender state: the Aeolus sender plus the
// credit-stop handshake and the credit-request retry timer.
type sender struct {
	core.PreCredit
	p *Protocol

	stopSent bool
	heard    bool // any receiver packet arrived: the request survived
	reqTm    sim.Timer
}

// init wires a zeroed sender slot (from the packed sender table) for a flow.
func (s *sender) init(p *Protocol, f *transport.Flow) {
	s.p = p
	s.Init(p.env, f, p.opts.Aeolus, p.env.Net.BDPBytes())
	s.reqTm.Init(p.env.Eng, s.reqExpire)
	if p.opts.RTOOnly {
		// No probe, no selective ACKs: the burst is presumed delivered and
		// losses surface only through receiver RTO resend requests.
		s.DisableProbe()
	}
}

func (s *sender) start() {
	s.sendReq()
	s.Start()
	// The credit request is the flow's only handle on the receiver-driven
	// recovery machinery: until it arrives, no credits flow and no receiver
	// RTO is armed, so a lost request would stall the flow forever. Retry it
	// on the RTO timescale until any receiver packet proves it (or the
	// backup probe) got through.
	if s.p.opts.RTO > 0 {
		s.reqTm.Reset(s.p.opts.RTO)
	}
}

// sendReq sends the credit request (in-order fabric: it precedes the burst).
func (s *sender) sendReq() {
	rdbase.Ctrl(s.Env, s.Flow, netem.CreditReq,
		s.Flow.Src, s.Flow.Dst, 0, s.Flow.Size, s.Flow.PathID)
}

func (s *sender) reqExpire() {
	if s.heard {
		return
	}
	s.sendReq()
	s.reqTm.Reset(s.p.opts.RTO)
}

func (s *sender) receive(pkt *netem.Packet) {
	if !s.heard {
		// Credit, Ack and Resend each imply the receiver established the
		// flow, which arms its RTO — the request needs no more retries.
		s.heard = true
		s.reqTm.Stop()
	}
	switch pkt.Type {
	case netem.Credit:
		s.onCredit()
	case netem.Ack:
		s.OnAckPacket(pkt)
	case netem.Resend:
		for _, seg := range pkt.SegList {
			s.ForceLost(int(seg))
		}
		s.stopSent = false
	}
}

func (s *sender) onCredit() {
	s.StopBurst()
	if _, class := s.Spend(); class == core.ClassNone {
		s.p.WastedCredits++
		if !s.stopSent && s.Done() {
			s.stopSent = true
			rdbase.Ctrl(s.Env, s.Flow, netem.CtrlOther,
				s.Flow.Src, s.Flow.Dst, 0, 0, s.Flow.PathID)
		}
	}
}

// receiver is the per-flow receiver state: reassembly, credit pacing with
// feedback control, per-packet ACKs for unscheduled data, and RTO-based
// resend requests.
type receiver struct {
	p      *Protocol
	flowID uint64
	rx     rdbase.Rx

	pending []int64 // data that arrived before the flow size was known

	crediting bool
	creditSeq int64
	rate      float64 // credit rate as a fraction of the edge link
	w         float64 // feedback aggressiveness
	creditsIn int     // credits sent in the current feedback window
	prevSent  int     // credits sent in the previous window (lag compensation)
	dataIn    int     // scheduled data received in the current window
	creditTm  sim.Timer
	feedback  sim.Timer
}

// init wires a zeroed receiver slot (from the packed receiver table) for a
// flow.
func (r *receiver) init(p *Protocol, flowID uint64) {
	r.p, r.flowID = p, flowID
	r.rate, r.w = p.opts.InitRate, p.opts.Aggressiveness
	r.rx.Env = p.env
	r.creditTm.Init(p.env.Eng, r.creditTick)
	r.feedback.Init(p.env.Eng, r.feedbackTick)
	r.rx.RTO.Init(p.env.Eng, p.opts.RTO, r.rtoExpire)
}

func (r *receiver) host() *netem.Host { return r.p.env.Net.Host(r.rx.Flow.Dst) }

func (r *receiver) receive(pkt *netem.Packet) {
	switch pkt.Type {
	case netem.CreditReq:
		r.establish()
		r.startCrediting()
	case netem.Probe:
		r.establish()
		r.rx.SendAck(pkt.Seq, core.ProbeAckMark)
		// The probe carries the flow size, so it doubles as a backup credit
		// request when the request itself was lost: without this, first-RTT
		// losses would sit in the sender's lost queue with no credits ever
		// coming to spend on them. On the in-order fabric the request (a
		// scheduled control packet) precedes the unscheduled burst and
		// probe, so this is a no-op on an unimpaired path.
		r.startCrediting()
	case netem.Data:
		r.onData(pkt)
	case netem.CtrlOther:
		// Credit stop: the sender has nothing left to send. Crediting
		// pauses; the RTO stays armed in case a loss surfaces later.
		r.stopCrediting()
	}
}

// establish starts reassembly once the credit request or the probe, both
// of which carry the flow size, announces the flow (idempotent), and replays
// early data.
func (r *receiver) establish() {
	if r.rx.Tracking() {
		return
	}
	r.rx.Flow = r.p.tbl.Flow(r.flowID)
	r.rx.Track()
	for _, off := range r.pending {
		r.rx.Accept(off)
	}
	r.pending = nil
	r.maybeFinish()
}

func (r *receiver) onData(pkt *netem.Packet) {
	r.rx.RTO.Touch()
	if !pkt.Scheduled && r.p.opts.Aeolus.Enabled && !r.p.opts.RTOOnly {
		r.sendAckDeferred(pkt.Seq, 0)
	}
	if pkt.Scheduled {
		r.dataIn++
	}
	if !r.rx.Tracking() {
		r.pending = append(r.pending, pkt.Seq)
		return
	}
	r.rx.Accept(pkt.Seq)
	r.maybeFinish()
}

// sendAckDeferred queues the ACK when flow state is not yet established
// (data raced ahead of the request — impossible on the in-order fabric, but
// kept for robustness).
func (r *receiver) sendAckDeferred(seq int64, mark int64) {
	if r.rx.Flow == nil {
		if f := r.p.tbl.Flow(r.flowID); f != nil {
			r.rx.Flow = f
		} else {
			return
		}
	}
	r.rx.SendAck(seq, mark)
}

func (r *receiver) maybeFinish() {
	if r.rx.Done || !r.rx.Tracking() || !r.rx.Complete() {
		return
	}
	r.rx.Done = true
	r.stopCrediting()
	r.rx.RTO.Stop()
	r.p.env.FlowDone(r.rx.Flow)
}

func (r *receiver) startCrediting() {
	if r.crediting || r.rx.Done {
		return
	}
	r.crediting = true
	r.scheduleCredit()
	r.scheduleFeedback()
	r.rx.RTO.Arm()
}

func (r *receiver) stopCrediting() {
	r.crediting = false
	r.creditTm.Stop()
	r.feedback.Stop()
}

// creditGap returns the pacing interval at the current rate with ±10%
// jitter (ExpressPass jitters credits to break synchronization).
func (r *receiver) creditGap() sim.Duration {
	rate := sim.Rate(r.rate * float64(r.p.env.Net.HostRate))
	if rate < 1 {
		rate = 1
	}
	gap := sim.TxTime(netem.WireSizeFor(r.p.env.MSS), rate)
	jitter := 0.9 + 0.2*r.p.rng.Float64()
	return sim.Duration(float64(gap) * jitter)
}

func (r *receiver) scheduleCredit() { r.creditTm.Reset(r.creditGap()) }

func (r *receiver) creditTick() {
	if !r.crediting || r.rx.Done {
		return
	}
	r.creditSeq++
	r.creditsIn++
	pkt := r.p.env.Pkt()
	pkt.Type = netem.Credit
	pkt.Flow = r.flowID
	pkt.Src = r.rx.Flow.Dst
	pkt.Dst = r.rx.Flow.Src
	pkt.Seq = r.creditSeq
	pkt.WireSize = netem.CreditSize
	pkt.Scheduled = true
	pkt.PathID = r.rx.Flow.PathID
	r.host().Send(pkt)
	r.scheduleCredit()
}

// scheduleFeedback runs the ExpressPass credit feedback control once per
// base RTT: raise the credit rate toward line rate while credit loss stays
// under target, multiplicatively back off otherwise.
func (r *receiver) scheduleFeedback() { r.feedback.Reset(r.p.env.Net.BaseRTT) }

func (r *receiver) feedbackTick() {
	if !r.crediting || r.rx.Done {
		return
	}
	// Scheduled data lags the credits that triggered it by one RTT, so
	// this window's arrivals are compared against the previous window's
	// credits.
	if r.prevSent > 0 {
		loss := 1 - float64(r.dataIn)/float64(r.prevSent)
		if loss < 0 {
			loss = 0
		}
		if loss <= r.p.opts.TargetLoss {
			r.rate = (1-r.w)*r.rate + r.w*1.0
			if loss == 0 {
				r.w = (r.w + 0.5) / 2
			}
		} else {
			r.rate = r.rate * (1 - loss) * (1 + r.p.opts.TargetLoss)
			r.w = maxF(r.w/2, 0.01)
			if r.rate < r.p.opts.InitRate/4 {
				r.rate = r.p.opts.InitRate / 4
			}
		}
	}
	r.prevSent, r.creditsIn, r.dataIn = r.creditsIn, 0, 0
	r.scheduleFeedback()
}

// rtoExpire is the receiver-driven loss recovery policy: when the flow sat
// idle for a full RTO and is established, request every missing segment and
// resume crediting. Idle detection, the done guard and rearming live in
// rdbase.RTO.
func (r *receiver) rtoExpire() {
	if !r.rx.Tracking() {
		return
	}
	r.rx.Flow.Timeouts++
	r.p.missing = r.rx.Missing(r.rx.Seg().NumSegs(), r.p.missing[:0])
	r.rx.SendResend(r.p.missing)
	r.startCrediting()
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// AuditInvariants checks every flow's Aeolus state machine for internal
// consistency, returning one error per violation in flow-ID order.
func (p *Protocol) AuditInvariants() []error {
	return rdbase.AuditPreCredits("expresspass", p.tbl.Senders())
}

// Footprint implements transport.FootprintReporter: resident flow
// descriptors, sender machines and per-flow credit-shaping receivers.
func (p *Protocol) Footprint() transport.Footprint {
	flows, senders := p.tbl.Len()
	return transport.Footprint{Flows: flows, Senders: senders, Receivers: p.receivers.Len()}
}
