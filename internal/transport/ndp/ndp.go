// Package ndp implements the NDP proactive transport [Handley et al.,
// SIGCOMM'17] on the netem fabric, with an optional Aeolus layer (§5.4 of
// the Aeolus paper).
//
// NDP senders blast the first bandwidth-delay product of a flow at line
// rate; switches keep very short data queues (8 packets) and *trim* the
// payload of overflowing packets, so the 64-byte headers still reach the
// receiver at high priority. The receiver NACKs trimmed packets and paces
// all further transmission with PULL packets clocked at the link rate; every
// data packet is sprayed independently across the fabric's equal-cost paths.
//
// With Aeolus enabled, trimming — which commodity switching ASICs do not
// support — is replaced by selective dropping: first-window packets are
// unscheduled and dropped beyond the threshold, pulled/retransmitted packets
// are scheduled and protected, and the probe/per-packet-ACK machinery
// locates first-window losses that now produce no NACK (§5.4: Aeolus works
// as an alternative to cutting payload, deployable on commodity switches).
//
// The package is a policy layer: each flow's sender is the Aeolus machine
// (internal/core.PreCredit), which builds and sends the flow's packets, and
// the shared receiver-driven substrate (internal/transport/rdbase) owns
// reassembly and the RTO lifecycle; this file owns trimming reactions and
// the pull pacer.
package ndp

import (
	"math/rand/v2"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/transport/rdbase"
)

// Options configures NDP.
type Options struct {
	// Aeolus enables and configures the pre-credit building block (and
	// disables switch trimming).
	Aeolus core.Options

	// TrimThresholdPkts is the data-queue bound in packets before trimming
	// (paper default 8 packets = 72 KB of jumbo frames).
	TrimThresholdPkts int

	// Spray enables per-packet multipath spraying (NDP default true).
	Spray bool

	// RTO is a sender-side safety timeout: an incomplete, idle flow re-sends
	// its oldest unacknowledged segment. Zero disables it.
	RTO sim.Duration

	// Seed randomizes spraying.
	Seed uint64
}

// DefaultOptions returns the paper's NDP defaults (Aeolus disabled).
func DefaultOptions() Options {
	return Options{
		TrimThresholdPkts: 8,
		Spray:             true,
		RTO:               sim.Millisecond,
	}
}

// MSS is NDP's jumbo-frame payload (the paper sets NDP's MTU to 9 KB).
const MSS = netem.JumboPayload

// QueueFactory returns the fabric discipline (§5.4): a switch port serves
// control packets and trimmed headers in a front band ahead of a short data
// queue, which trims on overflow for original NDP and drops selectively for
// NDP+Aeolus. Host NICs get an unbounded scheduled-first queue
// (retransmissions and control ahead of the blind first window).
func QueueFactory(opts Options, bufferBytes int64) netem.QueueFactory {
	trim := opts.TrimThresholdPkts
	if trim <= 0 {
		trim = 8
	}
	// Without a buffer, data gets 8 jumbo frames and control the default.
	data, ctrl := bufferBytes, bufferBytes
	if bufferBytes <= 0 {
		data, ctrl = 8*netem.JumboMTU, netem.DefaultBuffer
	}
	return func(kind netem.PortKind, rate sim.Rate) *netem.Queue {
		if kind == netem.HostNIC {
			return netem.NewSchedFirstQueue(0)
		}
		if opts.Aeolus.Enabled {
			return netem.NewQueue(1, opts.Aeolus.ThresholdBytes, data).WithControl(ctrl, false)
		}
		// The paper's trimming threshold: "the threshold of packet trimming
		// is set to 8 packets (72KB)" with 9 KB jumbo frames.
		return netem.NewQueue(1, 0, int64(trim)*netem.JumboMTU).WithControl(ctrl, true)
	}
}

// Protocol is the NDP implementation. One instance drives all hosts: it is
// every host's endpoint, and its tables hold every flow's state.
type Protocol struct {
	rdbase.Tables[sender, rxFlow]

	env  *transport.Env
	opts Options
	rng  *rand.Rand // draws each sprayed packet's path; nil when Spray is off

	rxHosts []rxHost // each host's pull pacer, indexed by host ID
	missing []int    // the receivers' scratch for loss scans
}

// New builds the protocol and attaches it to every host of the environment.
// The environment's MSS should be ndp.MSS (jumbo frames).
func New(env *transport.Env, opts Options) *Protocol {
	p := &Protocol{
		env: env, opts: opts,
		rxHosts: make([]rxHost, len(env.Net.Hosts)),
	}
	if opts.Spray {
		p.rng = sim.NewRand(opts.Seed, 0xfd9)
	}
	for i := range p.rxHosts {
		r := &p.rxHosts[i]
		r.p = p
		r.pullTm.Init(env.Eng, (*pullPacer)(r))
	}
	for _, h := range env.Net.EndpointHosts() {
		h.EP = p
	}
	return p
}

// Start implements transport.Protocol.
func (p *Protocol) Start(f *transport.Flow) {
	p.Register(f)
	s := p.AddSender(f.ID)
	s.init(p, f)
	s.start()
}

// Receive implements netem.Endpoint for every host: data and probes go to
// the host they reached (pkt.Dst), ACKs, NACKs and pulls to the sender.
func (p *Protocol) Receive(pkt *netem.Packet) {
	switch pkt.Type {
	case netem.Data, netem.Probe:
		p.rxHosts[pkt.Dst].receive(pkt)
	case netem.Ack, netem.Nack, netem.Pull:
		if s := p.Sender(pkt.Flow); s != nil {
			s.receive(pkt)
		}
	}
}

// sender is the per-flow sender state: the Aeolus sender plus NDP's
// NACK/pull reactions and the sender-side safety timeout.
type sender struct {
	core.PreCredit

	rto rdbase.RTO
}

// init wires a zeroed sender slot (from the packed sender table) for a flow.
func (s *sender) init(p *Protocol, f *transport.Flow) {
	s.rto.Init(p.env.Eng, p.opts.RTO, (*senderTimeout)(s))
	opts := p.opts.Aeolus
	opts.Enabled = true // the line-rate first window is NDP's own behaviour
	s.Init(p.env, f, opts, p.env.Net.BDPBytes())
	s.Spray = p.rng
	if !p.opts.Aeolus.Enabled {
		// Original NDP: trimming turns every loss into a NACK, so no probe
		// is needed and blind class-3 retransmissions are never useful.
		s.DisableProbe()
	}
}

func (s *sender) start() {
	s.Start()
	s.rto.Arm()
}

func (s *sender) receive(pkt *netem.Packet) {
	s.rto.Touch()
	switch pkt.Type {
	case netem.Ack:
		s.OnAckPacket(pkt)
	case netem.Nack:
		s.StopBurst()
		s.ForceLost(s.Seg.SegOf(pkt.Seq))
	case netem.Pull:
		s.StopBurst()
		s.Spend()
	}
}

// senderTimeout is the Handler view of a sender its RTO fires.
type senderTimeout sender

func (v *senderTimeout) Fire() { (*sender)(v).rtoExpire() }

// rtoExpire is NDP's safety-net recovery policy: trimming (or Aeolus's
// probe) normally makes timeouts unnecessary, but a lost probe ACK or
// trimmed-header drop under extreme congestion could otherwise strand the
// flow. Re-queue everything transmitted but never ACKed — covering losses
// the trimming/probe machinery left no trace of — and retransmit
// immediately. Idle detection and rearming live in rdbase.RTO; completion
// disarms the timer from the receiver path.
func (s *sender) rtoExpire() {
	if s.AllAcked() {
		// Every byte is acknowledged; nothing is left to recover.
		// Sequentially the receiver's completion path disarms this timer
		// before it can fire, but on a sharded run the receiver may live on
		// another shard where it cannot reach this sender — without the
		// self-disarm the timer would rearm forever and the drain phase
		// would never terminate.
		s.rto.Disarm()
		return
	}
	if s.RequeueUnacked() > 0 {
		s.Flow.Timeouts++
		s.DrainLost()
	} else if _, class := s.Spend(); class != core.ClassNone {
		s.Flow.Timeouts++
	}
}

// rxFlow is the receiver-side state of one flow.
type rxFlow struct {
	rx rdbase.Rx

	// pullDebt counts the transmissions the sender still needs a pull
	// token for: the payload beyond its first window, plus one per trimmed
	// packet (retransmission) and per hole the probe reveals. Pacing pulls
	// by debt instead of by arrival keeps the pull pacer from burning slots
	// on senders with nothing left to send.
	pullDebt int
}

// rxHost is one receiving host's pull pacer: it clocks the pulls of every
// sender transmitting to the host at the host's link rate. The flows it
// paces live in the protocol's receiver table.
type rxHost struct {
	p *Protocol

	// pullQ holds the pull slots awaiting the pacer as runs of one flow,
	// served from pullHead; a flow's whole debt is one run.
	pullQ    []pullRun
	pullHead int
	pacing   bool
	pullTm   sim.Timer
	pullSeq  int64
}

// pullRun is n consecutive pull slots of one flow.
type pullRun struct {
	flow uint64
	n    int
}

func (r *rxHost) receive(pkt *netem.Packet) {
	fl := r.p.Receiver(pkt.Flow)
	if fl == nil {
		f := r.p.Flow(pkt.Flow)
		if f == nil {
			return
		}
		fl, _ = r.p.AddReceiver(pkt.Flow)
		fl.rx.Env = r.p.env
		fl.rx.Flow = f
		fl.rx.Spray = r.p.rng // NDP sprays control packets like data
		fl.rx.Track()
		// Initial debt: everything beyond the sender's line-rate window.
		windowSegs := int(r.p.env.Net.BDPBytes()) / r.p.env.MSS
		if windowSegs < 1 {
			windowSegs = 1
		}
		if n := fl.rx.Seg().NumSegs() - windowSegs; n > 0 {
			fl.pullDebt = n
		}
	}
	if fl.rx.Done {
		return
	}
	switch {
	case pkt.Type == netem.Probe:
		fl.rx.SendAck(pkt.Seq, core.ProbeAckMark)
		// Dropped first-window packets produced no trimmed header and
		// therefore no pull; each observed hole below the burst end adds a
		// retransmission to the pull debt (NDP+Aeolus, §5.4).
		if pkt.Seq > 0 {
			last := fl.rx.Seg().SegOf(pkt.Seq - 1)
			r.p.missing = fl.rx.Missing(last+1, r.p.missing[:0])
			fl.pullDebt += len(r.p.missing)
		}
		r.servePulls(fl)
	case pkt.Trimmed:
		// Header of a trimmed packet: NACK triggers retransmission, which
		// needs one more pull.
		fl.rx.SendCtrl(netem.Nack, pkt.Seq, 0)
		fl.pullDebt++
		r.servePulls(fl)
	default:
		fl.rx.SendAck(pkt.Seq, 0)
		fl.rx.Accept(pkt.Seq)
		if fl.rx.Complete() {
			// Keep the tombstoned entry so late duplicates cannot recreate
			// the flow and restart the pull machinery.
			fl.rx.Done = true
			r.p.env.FlowDone(fl.rx.Flow)
			if s := r.p.Sender(pkt.Flow); s != nil {
				s.rto.Disarm()
			}
			return
		}
		r.servePulls(fl)
	}
}

// servePulls converts outstanding pull debt into pull-queue slots and
// starts the pacer.
func (r *rxHost) servePulls(fl *rxFlow) {
	if fl.pullDebt == 0 {
		return
	}
	if k := len(r.pullQ) - 1; k >= r.pullHead && r.pullQ[k].flow == fl.rx.Flow.ID {
		r.pullQ[k].n += fl.pullDebt
	} else {
		if r.pullHead > 0 && len(r.pullQ) == cap(r.pullQ) {
			// Reuse the served prefix before growing.
			r.pullQ = r.pullQ[:copy(r.pullQ, r.pullQ[r.pullHead:])]
			r.pullHead = 0
		}
		r.pullQ = append(r.pullQ, pullRun{fl.rx.Flow.ID, fl.pullDebt})
	}
	fl.pullDebt = 0
	if !r.pacing {
		r.pacing = true
		r.pacePull()
	}
}

// pullPacer is the Handler view of a host its pull timer fires.
type pullPacer rxHost

func (v *pullPacer) Fire() { (*rxHost)(v).pacePull() }

// pacePull emits one PULL per full-MTU serialization time, so the data the
// pulls trigger arrives at exactly the receiver's link rate.
func (r *rxHost) pacePull() {
	if r.pullHead == len(r.pullQ) {
		r.pacing = false
		return
	}
	run := &r.pullQ[r.pullHead]
	flow := run.flow
	if run.n--; run.n == 0 {
		if r.pullHead++; r.pullHead == len(r.pullQ) {
			r.pullQ, r.pullHead = r.pullQ[:0], 0
		}
	}
	if fl := r.p.Receiver(flow); fl != nil && !fl.rx.Done {
		r.pullSeq++
		fl.rx.SendCtrl(netem.Pull, r.pullSeq, 0)
	}
	gap := sim.TxTime(netem.JumboMTU, r.p.env.Net.HostRate)
	r.pullTm.Reset(gap)
}

// AuditInvariants checks every flow's Aeolus state machine for internal
// consistency, returning one error per violation in flow-ID order.
func (p *Protocol) AuditInvariants() []error {
	return rdbase.AuditPreCredits("ndp", &p.Tables)
}
