// Package core implements the Aeolus building block (§3 of the paper): the
// minimal pre-credit rate control (line-rate burst of one BDP of unscheduled
// packets, §3.1) and the sender-side probe/selective-ACK loss detection and
// retransmission ordering (§3.3).
//
// The selective-dropping switch queue itself (§3.2/§4.1) is a threshold on
// internal/netem's Queue, since it is a property of the fabric; so is the
// scheduled-first queue that models the paper's "hypothetical" idealized
// baselines. Each transport's queue factory installs them.
//
// Aeolus is deliberately a layer, not a transport: ExpressPass, Homa and NDP
// each embed a PreCredit per flow as the flow's sender and spend their own
// scheduled transmission opportunities (credits, grants, pulls) through
// PreCredit.Spend, which reproduces §3.3's "reuse the preserved proactive
// transport as a reliable means to recover dropped pre-credit packets".
package core

import (
	"fmt"
	"math/rand/v2"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// Options configures the Aeolus layer of a transport.
type Options struct {
	// Enabled turns the pre-credit machinery on. When false, the host
	// transport behaves as its original paper describes.
	Enabled bool

	// ThresholdBytes is the selective dropping threshold installed at
	// switches. The paper's default is 6 KB (4 full frames), §5.1.
	ThresholdBytes int64

	// ProbeTimeout re-sends the probe if neither a probe ACK nor any
	// scheduled transmission opportunity arrived in time (§6, resilience
	// under heavy incast: "let the sender set a timer to retransmit ... the
	// probe packet if no credit is received in a given duration").
	// Zero disables the safety timer.
	ProbeTimeout sim.Duration

	// MaxProbeResends bounds safety-timer probe retransmissions.
	MaxProbeResends int
}

// DefaultThreshold is the paper's default selective dropping threshold:
// 6 KB ≈ 4 full-size packets.
const DefaultThreshold int64 = 6 << 10

// DefaultProbeTimeout is the default §6 probe safety timer: several base
// RTTs on every topology of this repo, so it never fires on a healthy path
// (the probe ACK cancels it within one RTT), yet it recovers a flow whose
// entire first RTT — burst, probe and all — was wiped out, the one situation
// no receiver-driven timer can see.
const DefaultProbeTimeout = 100 * sim.Microsecond

// DefaultOptions returns the paper's default Aeolus configuration.
func DefaultOptions() Options {
	return Options{
		Enabled:         true,
		ThresholdBytes:  DefaultThreshold,
		ProbeTimeout:    DefaultProbeTimeout,
		MaxProbeResends: 3,
	}
}

// RetxClass tells a transport why PreCredit chose a segment, mirroring the
// three §3.3 priority classes.
type RetxClass int

// Retransmission classes, in strictly decreasing priority.
const (
	ClassLost    RetxClass = iota // loss-detected unscheduled packets
	ClassUnsent                   // never-transmitted (scheduled) payload
	ClassUnacked                  // sent-but-unacknowledged unscheduled packets
	ClassNone                     // nothing left to transmit
)

// ProbeAckMark distinguishes a probe ACK from a per-packet data ACK in the
// Meta field of Ack packets. Every transport's receiver sets it.
const ProbeAckMark int64 = 1

// PreCredit is the Aeolus sender of one flow: it builds and sends the flow's
// data packets and probes, decides what to send in the pre-credit phase, and
// spends each later scheduled opportunity the host transport receives. A
// transport embeds one per flow by value, readies it with Init and sets the
// per-flow wire fields (Spray, UnschedPrio, SchedPrio).
//
// One machine exists per live flow — at the h1024 sweep cells that is a
// hundred thousand of them resident at once — so the struct is packed for
// footprint: counters and scan pointers are int32 (segment counts cannot
// approach 2^31), the Options relevant to the sender are copied into three
// scalar fields instead of embedding the whole struct, and the byte-wide
// fields sit together at the tail so padding is paid once. The packing is
// purely representational; every method still computes in int.
type PreCredit struct {
	Env  *transport.Env
	Flow *transport.Flow
	Seg  transport.Segmenter

	// Spray, when non-nil, draws the path of every data packet and probe
	// (per-packet spraying); nil routes them on the flow's ECMP hash. The
	// draw happens once per packet, as it is built, so a sprayed run draws
	// in the order the flow's packets are sent.
	Spray *rand.Rand

	probeTimeout sim.Duration // Options.ProbeTimeout; zero disables the §6 timer

	acked    transport.Bitset
	assigned transport.Bitset // spent a scheduled opportunity on this segment already

	lost []int32 // FIFO of loss-detected segments awaiting retransmission

	pacer sim.Timer // self-pacing of the pre-credit burst
	timer sim.Timer // probe safety timer (§6)

	burstLimit int32 // segments eligible for the pre-credit burst (≤ one BDP)
	burstSent  int32 // segments actually burst before the phase ended
	ackCount   int32
	nextNew    int32 // next never-sent segment
	unackedP   int32 // scan pointer for the ClassUnacked sweep

	resends    int32
	maxResends int32 // Options.MaxProbeResends

	// UnschedPrio and SchedPrio are the fabric priority bands of burst and
	// scheduled data packets (Homa's; the other transports leave band 0).
	// The probe always rides band 0.
	UnschedPrio, SchedPrio uint8

	enabled    bool // Options.Enabled
	stopped    bool
	probeSent  bool
	probeAcked bool

	// oppSeen records that at least one scheduled transmission opportunity
	// (credit, grant, pull, resend request) reached the sender. §6 resends
	// the probe only "if no credit is received in a given duration": once an
	// opportunity arrives, the receiver evidently knows about the flow and a
	// duplicate probe would be pure overhead.
	oppSeen bool

	// noProbe is the probe switch DisableProbe sets: no probe is sent and
	// the ClassUnacked class is off. Original transports without per-packet
	// ACKs (vanilla Homa) assume burst delivery and surface losses only
	// through ForceLost.
	noProbe bool
}

// Init readies the machine in place for flow f. bdpBytes bounds the burst
// ("a flow sender ... sends a bandwidth-delay product worth of unscheduled
// packets at line-rate", §3.1).
func (pc *PreCredit) Init(env *transport.Env, f *transport.Flow, opts Options, bdpBytes int64) {
	seg := transport.Segmenter{Size: f.Size, MSS: env.MSS}
	n := seg.NumSegs()
	burst := int(bdpBytes / int64(env.MSS))
	if burst < 1 {
		burst = 1
	}
	if burst > n {
		burst = n
	}
	*pc = PreCredit{
		Env: env, Flow: f, Seg: seg,
		probeTimeout: opts.ProbeTimeout,
		maxResends:   int32(opts.MaxProbeResends),
		enabled:      opts.Enabled,
		burstLimit:   int32(burst),
	}
	pc.acked, pc.assigned = transport.NewBitsetPair(n)
	pc.pacer.Init(env.Eng, (*burstPacer)(pc))
	pc.timer.Init(env.Eng, (*probeTimer)(pc))
}

// burstPacer and probeTimer are the Handler views of a PreCredit its two
// timers fire: casting the machine's pointer selects which method runs, so
// binding a timer allocates nothing.
type burstPacer PreCredit

func (v *burstPacer) Fire() { (*PreCredit)(v).sendNext() }

type probeTimer PreCredit

func (v *probeTimer) Fire() { (*PreCredit)(v).onProbeTimeout() }

// DisableProbe turns off the Aeolus probe/per-packet-ACK loss detection
// while keeping the burst: no probe is sent and the ClassUnacked sweep is
// off, so losses surface only through ForceLost (receiver resend requests) —
// the original-transport and RTO-only configurations. The §6 safety timer
// still runs its course.
func (pc *PreCredit) DisableProbe() { pc.noProbe = true }

// BurstLimit returns the number of segments the pre-credit phase may send.
func (pc *PreCredit) BurstLimit() int { return int(pc.burstLimit) }

// BurstSent returns how many unscheduled segments were actually sent.
func (pc *PreCredit) BurstSent() int { return int(pc.burstSent) }

// ProbeSeq returns the byte sequence the probe should echo: the offset just
// past the last unscheduled byte (clamped to the flow size when the final
// burst segment is partial).
func (pc *PreCredit) ProbeSeq() int64 {
	off := pc.Seg.Offset(int(pc.burstSent))
	if off > pc.Flow.Size {
		off = pc.Flow.Size
	}
	return off
}

// Start begins the pre-credit line-rate burst: segments are self-paced at
// the edge rate so the phase can stop instantly when the first credit
// arrives (§3.1: "once the credit returns, it will exit the pre-credit state
// immediately even it has not yet sent out all unscheduled packets").
func (pc *PreCredit) Start() {
	if !pc.enabled {
		// Original transports without a pre-credit phase skip the burst;
		// everything is "unsent" and flows entirely through credits.
		pc.stopped = true
		return
	}
	pc.sendNext()
}

func (pc *PreCredit) sendNext() {
	if pc.stopped {
		return
	}
	if pc.burstSent >= pc.burstLimit {
		pc.finishBurst()
		return
	}
	seg := int(pc.burstSent)
	pc.burstSent++
	pc.nextNew = pc.burstSent
	pc.send(seg, false)
	gap := sim.TxTime(netem.WireSizeFor(pc.Seg.SegLen(seg)), pc.Env.Net.HostRate)
	pc.pacer.Reset(gap)
}

func (pc *PreCredit) finishBurst() {
	pc.stopped = true
	if pc.probeSent {
		return
	}
	pc.probeSent = true
	pc.sendProbe()
	pc.armTimer()
}

func (pc *PreCredit) armTimer() {
	if pc.probeTimeout <= 0 {
		return
	}
	pc.timer.Reset(pc.probeTimeout)
}

func (pc *PreCredit) onProbeTimeout() {
	if pc.probeAcked || pc.oppSeen || pc.Done() || pc.resends >= pc.maxResends {
		return
	}
	pc.resends++
	pc.sendProbe()
	pc.armTimer()
}

// StopBurst ends the pre-credit phase (first credit/grant/pull arrived). The
// probe is still sent so outstanding unscheduled losses can be located.
func (pc *PreCredit) StopBurst() {
	pc.oppSeen = true
	if pc.stopped {
		return
	}
	pc.pacer.Stop()
	pc.finishBurst()
}

// OnAck processes a per-packet selective ACK for the segment at the given
// byte offset.
func (pc *PreCredit) OnAck(off int64) {
	i := pc.Seg.SegOf(off)
	if i < 0 || i >= pc.acked.Len() || pc.acked.Get(i) {
		return
	}
	pc.acked.Set(i)
	pc.ackCount++
}

// OnAckPacket routes an Ack packet: a probe ACK triggers the §3.3 loss
// inference, a data ACK marks its segment. It reports whether the packet was
// the probe ACK, so a transport can hook the phase change (Homa drains its
// grant quota once the probe verdict lands).
func (pc *PreCredit) OnAckPacket(p *netem.Packet) (probeAck bool) {
	if p.Meta == ProbeAckMark {
		pc.OnProbeAck()
		return true
	}
	pc.OnAck(p.Seq)
	return false
}

// OnProbeAck processes the probe's ACK: every burst segment that is neither
// acknowledged nor already assigned a retransmission is now known lost
// (§3.3: "once the sender receives such a probe ACK, it can immediately
// infer all the losses of unscheduled packets, including the last one").
// It returns the number of newly detected losses.
func (pc *PreCredit) OnProbeAck() int {
	pc.probeAcked = true
	pc.timer.Stop()
	n := 0
	for i := 0; i < int(pc.burstSent); i++ {
		if !pc.acked.Get(i) && !pc.assigned.Get(i) {
			pc.lost = append(pc.lost, int32(i))
			pc.assigned.Set(i)
			n++
		}
	}
	return n
}

// ForceLost queues a segment for highest-priority retransmission regardless
// of its assignment state. Transports use it for receiver-driven resend
// requests (RTO recovery of scheduled drops), which override the one-shot
// assignment bookkeeping.
func (pc *PreCredit) ForceLost(seg int) {
	if seg < 0 || seg >= pc.acked.Len() || pc.acked.Get(seg) {
		return
	}
	pc.lost = append(pc.lost, int32(seg))
	pc.assigned.Set(seg)
}

// NextLost pops only loss-detected segments, for transports that retransmit
// resend-requested packets immediately rather than through the next
// scheduled opportunity (Homa's RTO path). ok is false when none remain.
func (pc *PreCredit) NextLost() (seg int, ok bool) {
	pc.oppSeen = true
	return pc.popLost()
}

// popLost pops the oldest loss-queue segment still unacknowledged (an ACK
// can race ahead of the loss verdict), or returns false once the queue is
// empty. A pop that empties the queue drops its array, so a flow that
// recovered its losses does not hold the array until the run ends.
func (pc *PreCredit) popLost() (seg int, ok bool) {
	for len(pc.lost) > 0 {
		s := int(pc.lost[0])
		pc.lost = pc.lost[1:]
		if len(pc.lost) == 0 {
			pc.lost = nil
		}
		if !pc.acked.Get(s) {
			return s, true
		}
	}
	return -1, false
}

// RequeueUnacked rebuilds the loss queue from every transmitted-but-
// unacknowledged segment across the whole flow, burst and scheduled region
// alike. It is the timeout-recovery path for transports with per-packet
// ACKs on all data (NDP): a scheduled packet lost to an extreme buffer
// overflow leaves no other trace. It returns the number of queued segments.
func (pc *PreCredit) RequeueUnacked() int {
	pc.lost = pc.lost[:0]
	n := 0
	for i := 0; i < pc.Seg.NumSegs(); i++ {
		sent := i < int(pc.burstSent) || pc.assigned.Get(i)
		if sent && !pc.acked.Get(i) {
			pc.lost = append(pc.lost, int32(i))
			pc.assigned.Set(i)
			n++
		}
	}
	return n
}

// Next chooses the segment the transport's next scheduled transmission
// opportunity should be spent on, in the §3.3 priority order:
// loss-detected unscheduled, then unsent payload, then sent-but-unacked
// unscheduled. It marks the segment assigned and returns its class.
func (pc *PreCredit) Next() (seg int, class RetxClass) {
	pc.oppSeen = true
	// Class 1: loss-detected unscheduled packets ("we want to fill the gap
	// as soon as possible to minimize the re-sequence buffer").
	if s, ok := pc.popLost(); ok {
		return s, ClassLost
	}
	// Class 2: unsent payload ("to avoid redundant retransmissions").
	for int(pc.nextNew) < pc.Seg.NumSegs() {
		s := int(pc.nextNew)
		pc.nextNew++
		if pc.assigned.Get(s) || pc.acked.Get(s) {
			continue
		}
		pc.assigned.Set(s)
		return s, ClassUnsent
	}
	// Class 3: sent-but-unacknowledged unscheduled packets. While a probe
	// verdict is pending, blind class-3 retransmissions would both
	// duplicate in-flight packets and burn opportunities the upcoming loss
	// report needs, so the sweep waits for the probe ACK.
	if pc.noProbe || (pc.probeSent && !pc.probeAcked) {
		return -1, ClassNone
	}
	for pc.unackedP < pc.burstSent {
		s := int(pc.unackedP)
		pc.unackedP++
		if pc.acked.Get(s) || pc.assigned.Get(s) {
			continue
		}
		pc.assigned.Set(s)
		return s, ClassUnacked
	}
	return -1, ClassNone
}

// Spend spends one scheduled transmission opportunity (credit, grant quota,
// pull) on the next segment in the §3.3 priority order, sending it as a
// scheduled packet. ClassNone means the opportunity found nothing to send,
// and nothing was sent.
func (pc *PreCredit) Spend() (seg int, class RetxClass) {
	seg, class = pc.Next()
	if class != ClassNone {
		pc.send(seg, true)
	}
	return seg, class
}

// DrainLost retransmits every pending loss-queue segment at once as a
// scheduled packet — the path for transports that answer resend requests or
// timeouts without waiting for fresh transmission opportunities.
func (pc *PreCredit) DrainLost() {
	for seg, ok := pc.NextLost(); ok; seg, ok = pc.NextLost() {
		pc.send(seg, true)
	}
}

// Done reports whether every segment is either acknowledged or assigned and
// nothing remains to transmit — i.e. a scheduled opportunity would be wasted.
// Stale loss-queue entries (segments whose ACK raced ahead of the loss
// verdict) are skipped exactly as Next skips them: a flow with nothing left
// but stale entries is done, and reporting otherwise makes transports keep
// spending credits and grants on it.
func (pc *PreCredit) Done() bool {
	for _, s := range pc.lost {
		if !pc.acked.Get(int(s)) {
			return false
		}
	}
	for i := int(pc.nextNew); i < pc.Seg.NumSegs(); i++ {
		if !pc.acked.Get(i) && !pc.assigned.Get(i) {
			return false
		}
	}
	if pc.noProbe {
		return true
	}
	for i := int(pc.unackedP); i < int(pc.burstSent); i++ {
		if !pc.acked.Get(i) && !pc.assigned.Get(i) {
			return false
		}
	}
	return true
}

// AllAcked reports whether every segment of the flow has been acknowledged —
// strictly stronger than Done, which also holds while sent-but-unacked
// segments are still in flight (or lost). Transports with per-packet ACKs
// (NDP) use it as the self-disarm test for their retransmission timer: with
// every byte acknowledged nothing can remain to recover, so the timer is
// provably useless and may stop itself. The scan is linear but runs only on
// actual timer expiry, never on the data path.
func (pc *PreCredit) AllAcked() bool {
	return pc.acked.NextZero(0) == pc.acked.Len()
}

// Stopped reports whether the pre-credit phase has ended.
func (pc *PreCredit) Stopped() bool { return pc.stopped }

// Audit verifies the state machine's internal consistency and returns the
// first violation found, or nil. Entries in the loss queue whose segment has
// since been acknowledged are legal transients (the ACK raced the probe
// verdict, or a receiver resend request repeated a segment); everything else
// is bounded: an un-acked loss entry must be a real, assigned segment, the
// counters must agree with the bitmaps, and the burst/scan pointers must stay
// within the segment space.
func (pc *PreCredit) Audit() error {
	n := pc.Seg.NumSegs()
	if pc.acked.Len() != n || pc.assigned.Len() != n {
		return fmt.Errorf("precredit flow %d: bitmap sizes acked=%d assigned=%d, want %d",
			pc.Flow.ID, pc.acked.Len(), pc.assigned.Len(), n)
	}
	if acks := pc.acked.Count(); acks != int(pc.ackCount) {
		return fmt.Errorf("precredit flow %d: ackCount %d but %d segments acked",
			pc.Flow.ID, pc.ackCount, acks)
	}
	if pc.burstLimit < 1 || int(pc.burstLimit) > n {
		return fmt.Errorf("precredit flow %d: burstLimit %d outside [1, %d]",
			pc.Flow.ID, pc.burstLimit, n)
	}
	if pc.burstSent < 0 || pc.burstSent > pc.burstLimit {
		return fmt.Errorf("precredit flow %d: burstSent %d outside [0, burstLimit %d]",
			pc.Flow.ID, pc.burstSent, pc.burstLimit)
	}
	if pc.nextNew < pc.burstSent || int(pc.nextNew) > n {
		return fmt.Errorf("precredit flow %d: nextNew %d outside [burstSent %d, %d]",
			pc.Flow.ID, pc.nextNew, pc.burstSent, n)
	}
	if pc.unackedP < 0 || pc.unackedP > pc.burstSent {
		return fmt.Errorf("precredit flow %d: unackedP %d outside [0, burstSent %d]",
			pc.Flow.ID, pc.unackedP, pc.burstSent)
	}
	for _, s := range pc.lost {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("precredit flow %d: lost queue holds segment %d outside [0, %d)",
				pc.Flow.ID, s, n)
		}
		if !pc.acked.Get(int(s)) && !pc.assigned.Get(int(s)) {
			return fmt.Errorf("precredit flow %d: lost segment %d neither acked nor assigned",
				pc.Flow.ID, s)
		}
	}
	if pc.probeAcked && !pc.probeSent {
		return fmt.Errorf("precredit flow %d: probe acked before being sent", pc.Flow.ID)
	}
	if pc.probeTimeout > 0 && pc.resends > pc.maxResends {
		return fmt.Errorf("precredit flow %d: %d probe resends exceed limit %d",
			pc.Flow.ID, pc.resends, pc.maxResends)
	}
	return nil
}

// send builds data segment seg, marked scheduled or unscheduled, and puts
// it on the sending host's NIC. It is the one place a data packet is built.
func (pc *PreCredit) send(seg int, scheduled bool) {
	payload := pc.Seg.SegLen(seg)
	pc.Env.CountSent(payload)
	p := pc.Env.Pkt()
	p.Type, p.Flow, p.Src, p.Dst = netem.Data, pc.Flow.ID, pc.Flow.Src, pc.Flow.Dst
	p.Seq, p.PayloadLen = pc.Seg.Offset(seg), payload
	p.WireSize, p.Scheduled = netem.WireSizeFor(payload), scheduled
	p.Prio = pc.UnschedPrio
	if scheduled {
		p.Prio = pc.SchedPrio
	}
	p.PathID = pc.Flow.Path(pc.Spray)
	pc.Env.Net.Host(pc.Flow.Src).Send(p)
}

// sendProbe sends the Aeolus probe, unless DisableProbe turned it off:
// minimum Ethernet size, scheduled (protected), on band 0, carrying the
// end-of-burst sequence and the flow size (so a Homa-style receiver learns
// the demand even if every unscheduled packet was dropped, §4.2).
func (pc *PreCredit) sendProbe() {
	if pc.noProbe {
		return
	}
	p := pc.Env.Pkt()
	p.Type, p.Flow, p.Src, p.Dst = netem.Probe, pc.Flow.ID, pc.Flow.Src, pc.Flow.Dst
	p.Seq, p.Meta = pc.ProbeSeq(), pc.Flow.Size
	p.WireSize, p.Scheduled = netem.ProbeSize, true
	p.PathID = pc.Flow.Path(pc.Spray)
	pc.Env.Net.Host(pc.Flow.Src).Send(p)
}
