package netem

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

func TestAuditQdiscCleanQueues(t *testing.T) {
	qs := []*Queue{
		NewQueue(1, 0, 0),
		NewQueue(1, 6<<10, DefaultBuffer),
		NewQueue(8, 0, DefaultBuffer),
		NewSchedFirstQueue(0),
		NewQueue(1, 0, 8*JumboMTU).WithControl(DefaultBuffer, true),
		NewQueue(1, 0, DefaultBuffer).WithCredits(10 * sim.Gbps),
	}
	for i, q := range qs {
		for j := 0; j < 5; j++ {
			q.Enqueue(dataPkt(uint64(j), 1538, j%2 == 0), 0)
		}
		q.Enqueue(&Packet{Type: Credit, WireSize: CreditSize}, 0)
		q.Dequeue(0)
		if err := q.Audit(); err != nil {
			t.Errorf("queue %d: clean queue failed audit: %v", i, err)
		}
	}
}

func TestAuditQdiscDetectsCounterDrift(t *testing.T) {
	f := NewQueue(1, 0, 0)
	f.Enqueue(dataPkt(1, 1538, false), 0)
	f.bands[0].bytes += 7
	if err := f.Audit(); err == nil {
		t.Error("FIFO byte drift not detected")
	}

	pq := NewQueue(4, 0, DefaultBuffer)
	pq.Enqueue(dataPkt(1, 1538, false), 0)
	pq.total -= 100
	if err := pq.Audit(); err == nil {
		t.Error("priority queue total drift not detected")
	}

	sq := NewSchedFirstQueue(0)
	sq.Enqueue(dataPkt(1, 1538, false), 0)
	sq.Enqueue(dataPkt(2, 1538, true), 0)
	sq.Dequeue(0)
	sq.bands[1].bytes += 9
	if err := sq.Audit(); err == nil {
		t.Error("scheduled-first unscheduled-band drift not detected")
	}

	nq := NewQueue(1, 0, 8*JumboMTU).WithControl(DefaultBuffer, true)
	nq.Enqueue(dataPkt(1, 1538, false), 0)
	nq.bands[0].bytes++
	if err := nq.Audit(); err == nil {
		t.Error("NDP data band drift not detected")
	}

	cq := NewQueue(1, 0, 8*JumboMTU).WithControl(DefaultBuffer, true)
	cq.Enqueue(&Packet{Type: Pull, WireSize: HeaderSize}, 0)
	cq.front.bytes++
	if err := cq.Audit(); err == nil {
		t.Error("NDP control band drift not detected")
	}

	xq := NewQueue(1, 0, DefaultBuffer).WithCredits(10 * sim.Gbps)
	xq.Enqueue(&Packet{Type: Credit, WireSize: CreditSize}, 0)
	xq.front.bytes--
	if err := xq.Audit(); err == nil {
		t.Error("ExpressPass credit band drift not detected")
	}
}

// TestInstrumentedImpairedPortKeepsItsQdisc: taps and impairment hang off
// the port, never around its queue, so on a traced, impaired port pt.Q is
// still the scheme's own queue and its Audit reads its counters.
func TestInstrumentedImpairedPortKeepsItsQdisc(t *testing.T) {
	q := NewQueue(1, 0, DefaultBuffer)
	pt := NewPort(sim.NewEngine(), q, 10*sim.Gbps, sim.Microsecond, nil, "sw0->h0")
	InstrumentPorts([]*Port{pt}, NewCountingTracer())
	InstallImpairment(pt, 1)
	InstrumentPorts([]*Port{pt}, NewCountingTracer())
	if pt.Q != q {
		t.Fatalf("pt.Q is %p, want the port's own queue %p", pt.Q, q)
	}
	// The first packet goes to the serializer, the second stays queued.
	pt.Send(dataPkt(1, 1538, false))
	pt.Send(dataPkt(2, 1538, false))
	if err := pt.Q.Audit(); err != nil {
		t.Fatalf("clean queue failed audit: %v", err)
	}
	q.bands[0].bytes = 42
	if err := pt.Q.Audit(); err == nil {
		t.Fatal("corrupted byte counter not detected")
	}
}

// TestDropTotalsThroughInstrumentation is the regression for drop counters
// vanishing from aggregation once a port was instrumented: a tracing
// wrapper used to hide the discipline's counter, so every audited or traced
// run reported zero switch drops. Port.Send now counts every refusal itself.
func TestDropTotalsThroughInstrumentation(t *testing.T) {
	eng := sim.NewEngine()
	pt := NewPort(eng, NewQueue(1, 1000, 2000), 10*sim.Gbps, sim.Microsecond, nil, "sw0->h0")
	ports := []*Port{pt}
	InstrumentPorts(ports, NewCountingTracer())

	// Three unscheduled packets: the first goes straight to the serializer,
	// the second queues, the third exceeds the selective threshold.
	for i := 0; i < 3; i++ {
		pt.Send(dataPkt(1, 800, false))
	}
	if tot := DropTotals(ports); tot != [NumDropReasons]uint64{DropSelective: 1} {
		t.Fatalf("DropTotals through instrumented port = %v, want 1 selective drop", tot)
	}
}

// TestBaseRTTFollowsFrameBytes is the regression for the hardcoded 1500-byte
// serialization assumption: a jumbo-frame fabric must derive a larger base
// RTT (and therefore BDP) than a standard-MTU one on identical links.
func TestBaseRTTFollowsFrameBytes(t *testing.T) {
	build := func(frame int) *Network {
		return BuildClos(sim.NewEngine(), TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 1}},
			HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, frame)
	}
	std := build(0)
	explicit := build(WireSizeFor(MaxPayload))
	jumbo := build(JumboMTU)

	if std.BaseRTT != explicit.BaseRTT {
		t.Fatalf("default FrameBytes RTT %v != explicit 1538B RTT %v", std.BaseRTT, explicit.BaseRTT)
	}
	if jumbo.BaseRTT <= std.BaseRTT {
		t.Fatalf("jumbo RTT %v not above standard RTT %v", jumbo.BaseRTT, std.BaseRTT)
	}
	// The difference is exactly the extra serialization of the larger frame
	// on the two forward hops.
	want := 2 * (sim.TxTime(JumboMTU, 10*sim.Gbps) - sim.TxTime(WireSizeFor(MaxPayload), 10*sim.Gbps))
	if got := jumbo.BaseRTT - std.BaseRTT; got != want {
		t.Fatalf("RTT delta %v, want %v", got, want)
	}
	if jumbo.BDPBytes() <= std.BDPBytes() {
		t.Fatalf("jumbo BDP %d not above standard BDP %d", jumbo.BDPBytes(), std.BDPBytes())
	}
}
