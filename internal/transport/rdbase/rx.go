package rdbase

import (
	"fmt"
	"math/rand/v2"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/transport"
)

// Rx is the per-flow receiver substrate: reassembly, the RTO lifecycle, and
// the control-packet plumbing back to the sender (ACKs, resend requests,
// transport-specific control like grants and pulls). Transports embed it in
// their receiver state and keep only policy — crediting, grant scheduling,
// pull pacing — for themselves.
//
// A protocol's receiver table keeps every receiver it ever had, completed
// ones as tombstones, so the slot stays compact: the segmentation derives
// from Flow.Size and Env.MSS, receipt is one bit per segment, the flow is
// complete when its unique bytes reach Flow.Size, and Missing fills the
// caller's buffer rather than one per flow.
type Rx struct {
	Env  *transport.Env
	Flow *transport.Flow

	// Spray, when non-nil, draws the path of every control packet (NDP
	// sprays control like data); nil routes on the flow's ECMP hash.
	Spray *rand.Rand

	RTO RTO

	got      transport.Bitset
	bytes    int64
	tracking bool
	Done     bool
}

// Track starts reassembling Flow. Homa and NDP call it when a flow's first
// packet arrives; ExpressPass once the credit request or probe announces
// the flow, holding any data that raced ahead of both until then.
func (r *Rx) Track() {
	r.got = transport.NewBitset(r.Seg().NumSegs())
	r.tracking = true
}

// Tracking reports whether Track was called.
func (r *Rx) Tracking() bool { return r.tracking }

// Seg returns the flow's segmentation.
func (r *Rx) Seg() transport.Segmenter {
	return transport.Segmenter{Size: r.Flow.Size, MSS: r.Env.MSS}
}

// Accept marks the data at offset off received and meters newly delivered
// payload. It returns the number of new bytes (0 for duplicates).
func (r *Rx) Accept(off int64) int {
	seg := r.Seg()
	i := seg.SegOf(off)
	if i < 0 || i >= r.got.Len() {
		panic(fmt.Sprintf("rdbase: offset %d outside flow of %d bytes", off, r.Flow.Size))
	}
	if r.got.Get(i) {
		return 0
	}
	r.got.Set(i)
	n := seg.SegLen(i)
	r.bytes += int64(n)
	r.Env.CountDelivered(n)
	return n
}

// Bytes returns the unique payload bytes received so far.
func (r *Rx) Bytes() int64 { return r.bytes }

// Complete reports whether every byte of the flow has arrived.
func (r *Rx) Complete() bool { return r.bytes == r.Flow.Size }

// Missing appends the indices of the segments not yet received among the
// first n to out and returns it. Callers pass a buffer they reuse (sliced to
// length zero), so loss scans allocate nothing in steady state.
func (r *Rx) Missing(n int, out []int) []int {
	if n > r.got.Len() {
		n = r.got.Len()
	}
	for i := r.got.NextZero(0); i < n; i = r.got.NextZero(i + 1) {
		out = append(out, i)
	}
	return out
}

// SendCtrl sends a minimum-size control packet back to the sender.
func (r *Rx) SendCtrl(typ netem.PacketType, seq, meta int64) {
	Ctrl(r.Env, r.Flow, typ, r.Flow.Dst, r.Flow.Src, seq, meta, r.Flow.Path(r.Spray))
}

// SendAck acknowledges one arrival; mark is core.ProbeAckMark for a probe
// ACK, 0 for a per-packet data ACK.
func (r *Rx) SendAck(seq, mark int64) { r.SendCtrl(netem.Ack, seq, mark) }

// SendResend requests retransmission of the given segments. The sender
// answers through PreCredit.ForceLost.
func (r *Rx) SendResend(segs []int) {
	p := r.Env.Pkt()
	p.Type, p.Flow = netem.Resend, r.Flow.ID
	p.Src, p.Dst = r.Flow.Dst, r.Flow.Src
	p.WireSize, p.Scheduled = netem.HeaderSize, true
	p.PathID = r.Flow.Path(r.Spray)
	for _, s := range segs {
		p.SegList = append(p.SegList, int32(s))
	}
	r.Env.Net.Host(r.Flow.Dst).Send(p)
}
