package audit

import (
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

func testNet() *netem.Network {
	return netem.BuildClos(sim.NewEngine(), netem.TopoSpec{HostsPerEdge: 2, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
}

// dataPkt builds a data packet from the given pool; a nil pool allocates,
// for synthetic Trace-only scenarios where the fabric never terminates (and
// so never releases) the packet.
func dataPkt(pp *netem.PacketPool, flow uint64, seq int64, payload int) *netem.Packet {
	p := pp.Get()
	p.Type, p.Flow, p.Src, p.Dst = netem.Data, flow, 0, 1
	p.Seq, p.PayloadLen, p.WireSize = seq, payload, netem.WireSizeFor(payload)
	return p
}

// TestAuditorCleanDelivery drives real packets through a real fabric (no
// protocol — endpoints just absorb) and expects a balanced, violation-free
// report.
func TestAuditorCleanDelivery(t *testing.T) {
	net := testNet()
	a := Attach(net)
	a.RegisterFlow(1, 3000)
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 0, 1500))
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 1500, 1500))
	net.Eng.Run()
	rep := a.Finish()
	if err := rep.Err(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if rep.InjectedPayload != 3000 || rep.DeliveredPayload != 3000 || rep.UniquePayload != 3000 {
		t.Fatalf("ledger = %+v, want 3000 injected/delivered/unique", rep)
	}
	if rep.ResidualPayload != 0 || rep.DroppedPayload != 0 {
		t.Fatalf("unexpected residual/dropped: %+v", rep)
	}
}

// TestAuditorAccountsDrops overflows a tiny switch queue and expects the
// lost payload attributed to drops, with conservation still balancing.
func TestAuditorAccountsDrops(t *testing.T) {
	net := netem.BuildClos(sim.NewEngine(), netem.TopoSpec{HostsPerEdge: 3, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond},
		func(kind netem.PortKind, _ sim.Rate) *netem.Queue {
			if kind == netem.HostNIC {
				return netem.NewQueue(1, 0, 0)
			}
			return netem.NewQueue(1, 0, 2*1578) // room for two full frames
		}, 0)
	a := Attach(net)
	a.RegisterFlow(1, 10*1500)
	a.RegisterFlow(2, 10*1500)
	// Two line-rate senders share one downlink: the 2-frame switch queue
	// must shed roughly half the offered load.
	for i := 0; i < 10; i++ {
		p1 := dataPkt(net.Pool, 1, int64(i)*1500, 1500)
		p2 := dataPkt(net.Pool, 2, int64(i)*1500, 1500)
		p2.Src, p2.Dst = 1, 2
		p1.Dst = 2
		net.Hosts[0].Send(p1)
		net.Hosts[1].Send(p2)
	}
	net.Eng.Run()
	rep := a.Finish()
	if err := rep.Err(); err != nil {
		t.Fatalf("drop run: %v", err)
	}
	if rep.DroppedPayload == 0 {
		t.Fatal("expected drops at the 2-frame switch queue")
	}
	if rep.InjectedPayload != rep.DeliveredPayload+rep.DroppedPayload {
		t.Fatalf("books don't balance: %+v", rep)
	}
	if rep.DropsByReason[netem.DropTailFull] == 0 {
		t.Fatalf("tail drops not classified: %+v", rep.DropsByReason)
	}
}

// TestAuditorDetectsUncountedDrop: a traced drop that no port counted — a
// packet refused outside Port.Send — is a drop-count violation.
func TestAuditorDetectsUncountedDrop(t *testing.T) {
	a := Attach(testNet())
	p := dataPkt(nil, 1, 0, 1500)
	a.Trace(0, netem.TraceEnqueue, "h0->sw0", p)
	a.Trace(1, netem.TraceDrop, "sw0->h1", p)
	if rep := a.Finish(); !hasCheck(rep, "drop-count") {
		t.Fatalf("uncounted drop not flagged: %v", rep.Err())
	}
}

func TestAuditorDetectsDoubleDeliver(t *testing.T) {
	net := testNet()
	a := Attach(net)
	a.RegisterFlow(1, 1500)
	p := dataPkt(nil, 1, 0, 1500)
	a.Trace(0, netem.TraceEnqueue, "h0->sw0", p)
	a.Trace(1, netem.TraceDeliver, "host1", p)
	a.Trace(2, netem.TraceDeliver, "host1", p)
	rep := a.Finish()
	if !hasCheck(rep, "double-deliver") {
		t.Fatalf("double delivery not flagged: %v", rep.Err())
	}
}

func TestAuditorDetectsDeliveryBeyondFlowSize(t *testing.T) {
	net := testNet()
	a := Attach(net)
	a.RegisterFlow(1, 1000) // flow is smaller than one full segment
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 0, 1500))
	net.Eng.Run()
	rep := a.Finish()
	if !hasCheck(rep, "beyond-size") {
		t.Fatalf("out-of-range delivery not flagged: %v", rep.Err())
	}
}

func TestAuditorDetectsDuplicateUniqueBytes(t *testing.T) {
	net := testNet()
	a := Attach(net)
	a.RegisterFlow(1, 1500)
	// Two distinct packets carrying the same bytes: legal retransmission,
	// unique payload must be counted once and stay within the flow size.
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 0, 1500))
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 0, 1500))
	net.Eng.Run()
	rep := a.Finish()
	if err := rep.Err(); err != nil {
		t.Fatalf("retransmission flagged: %v", err)
	}
	if rep.DeliveredPayload != 3000 || rep.UniquePayload != 1500 {
		t.Fatalf("delivered=%d unique=%d, want 3000/1500", rep.DeliveredPayload, rep.UniquePayload)
	}
}

func TestAuditorDetectsNonMonotonicTime(t *testing.T) {
	net := testNet()
	a := Attach(net)
	p := dataPkt(nil, 1, 0, 1500)
	a.Trace(sim.Time(100), netem.TraceEnqueue, "h0->sw0", p)
	a.Trace(sim.Time(50), netem.TraceDeliver, "host1", p)
	rep := a.Finish()
	if !hasCheck(rep, "monotonic-time") {
		t.Fatalf("time regression not flagged: %v", rep.Err())
	}
}

func TestAuditorDetectsResidualAfterDrain(t *testing.T) {
	net := testNet()
	a := Attach(net)
	a.RegisterFlow(1, 1500)
	// A packet enters the fabric but never reaches a terminal event, and
	// the engine is idle: payload leaked.
	a.Trace(0, netem.TraceEnqueue, "h0->sw0", dataPkt(nil, 1, 0, 1500))
	rep := a.Finish()
	if !hasCheck(rep, "residual") {
		t.Fatalf("leaked payload not flagged: %v", rep.Err())
	}
}

func TestAuditorCheckMeter(t *testing.T) {
	net := testNet()
	a := Attach(net)
	a.RegisterFlow(1, 1500)
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 0, 1500))
	net.Eng.Run()
	a.CheckMeter(1500, 1500)
	rep := a.Finish()
	if err := rep.Err(); err != nil {
		t.Fatalf("consistent meter flagged: %v", err)
	}

	b := Attach(testNet())
	b.CheckMeter(999, 0) // claims sends the fabric never saw
	if !hasCheck(&b.report, "meter-sent") {
		t.Fatal("meter-sent drift not flagged")
	}
	c := Attach(testNet())
	c.CheckMeter(0, 999) // claims deliveries the fabric never made
	if !hasCheck(&c.report, "meter-delivered") {
		t.Fatal("meter-delivered drift not flagged")
	}
}

func TestAuditProtocol(t *testing.T) {
	a := Attach(testNet())
	a.AuditProtocol(nil)
	if !a.report.Ok() {
		t.Fatalf("clean protocol flagged: %v", a.report.Err())
	}
	a.AuditProtocol([]error{errFake("pc broken")})
	if !hasCheck(&a.report, "protocol-state") {
		t.Fatal("protocol error not flagged")
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func TestReportErrFormatsViolations(t *testing.T) {
	var r Report
	if r.Err() != nil {
		t.Fatal("empty report should have nil Err")
	}
	for i := 0; i < maxViolations+10; i++ {
		r.add(Violation{Check: "conservation", Flow: uint64(i), Detail: "x"})
	}
	if len(r.Violations) != maxViolations || r.Truncated != 10 {
		t.Fatalf("cap broken: %d kept, %d truncated", len(r.Violations), r.Truncated)
	}
	msg := r.Err().Error()
	if !strings.Contains(msg, "conservation") || !strings.Contains(msg, "more suppressed") {
		t.Fatalf("Err() = %q", msg)
	}
}

func hasCheck(r *Report, check string) bool {
	for _, v := range r.Violations {
		if v.Check == check {
			return true
		}
	}
	return false
}

// TestAuditorLedgerFollowsThePool sends more packets at once than two full
// pool chunks hold, so the pool carves past two chunks and the per-packet
// ledger grows with it. The report must stay clean, the ledger must carve
// no more slots than the pool's whole chunks, and an entry taken before the
// growth must still be the one the ledger holds for its slot after it: the
// ledger grows by blocks and never copies.
func TestAuditorLedgerFollowsThePool(t *testing.T) {
	net := netem.BuildClos(sim.NewEngine(), netem.TopoSpec{HostsPerEdge: 2, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond},
		func(netem.PortKind, sim.Rate) *netem.Queue { return netem.NewQueue(1, 0, 0) }, 0)
	a := Attach(net)
	const n, payload = 2*netem.PacketChunkSize + 100, 100
	a.RegisterFlow(1, n*payload)
	net.Hosts[0].Send(dataPkt(net.Pool, 1, 0, payload))
	first := a.entry(0)
	for i := 1; i < n; i++ {
		net.Hosts[0].Send(dataPkt(net.Pool, 1, int64(i)*payload, payload))
	}
	net.Eng.Run()
	rep := a.Finish()
	if err := rep.Err(); err != nil {
		t.Fatalf("run past two pool chunks: %v", err)
	}
	if rep.Pool.Allocated != n || rep.UniquePayload != n*payload {
		t.Fatalf("pool carved %d packets and %d bytes arrived, want %d and %d",
			rep.Pool.Allocated, rep.UniquePayload, n, n*payload)
	}
	chunks := (n + netem.PacketChunkSize - 1) / netem.PacketChunkSize
	if got := a.slots.Cap() * ledgerLineLen; got < n || got > chunks*netem.PacketChunkSize {
		t.Errorf("ledger carved %d slots for %d packets, want at most %d", got, n, chunks*netem.PacketChunkSize)
	}
	if a.entry(0) != first {
		t.Error("slot 0's ledger entry moved while the ledger grew")
	}
}

// TestFlowLedgerNeverMoves registers flows past three runs of the flow
// ledger's slab. A ledger taken before the growth must still be the flow's
// ledger after it, and the slab must carve no more than the whole runs its
// flows need.
func TestFlowLedgerNeverMoves(t *testing.T) {
	a := Attach(netem.BuildClos(sim.NewEngine(), netem.TopoSpec{HostsPerEdge: 2, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond},
		func(netem.PortKind, sim.Rate) *netem.Queue { return netem.NewQueue(1, 0, 0) }, 0))
	const n = 3*flowAcctChunk + 5
	a.RegisterFlow(1, 1000)
	first := a.flowOf(1)
	for id := uint64(2); id <= n; id++ {
		a.RegisterFlow(id, 1000)
	}
	if a.flowOf(1) != first || first.size != 1000 {
		t.Error("flow 1's ledger moved while the ledger grew")
	}
	if got, whole := a.flowAccts.Cap(), (n+flowAcctChunk-1)/flowAcctChunk*flowAcctChunk; got < n || got > whole {
		t.Errorf("flow ledger carved %d slots for %d flows, want at most %d", got, n, whole)
	}
}
