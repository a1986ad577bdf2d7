package netem

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

func TestAuditQdiscCleanQueues(t *testing.T) {
	qs := []Qdisc{
		NewFIFO(0),
		NewSelectiveDrop(6<<10, DefaultBuffer),
		NewPrioQdisc(8, DefaultBuffer),
		NewNDPQueue(NDPQueueConfig{Trim: true}),
		NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(10 * sim.Gbps)}),
	}
	for _, q := range qs {
		for i := 0; i < 5; i++ {
			q.Enqueue(dataPkt(uint64(i), 1538, true), 0)
		}
		q.Dequeue(0)
		if err := AuditQdisc(q); err != nil {
			t.Errorf("%T: clean queue failed audit: %v", q, err)
		}
	}
}

func TestAuditQdiscDetectsCounterDrift(t *testing.T) {
	f := NewFIFO(0)
	f.Enqueue(dataPkt(1, 1538, false), 0)
	f.q.bytes += 7
	if err := AuditQdisc(f); err == nil {
		t.Error("FIFO byte drift not detected")
	}

	pq := NewPrioQdisc(4, DefaultBuffer)
	pq.Enqueue(dataPkt(1, 1538, false), 0)
	pq.total -= 100
	if err := AuditQdisc(pq); err == nil {
		t.Error("PrioQdisc total drift not detected")
	}

	nq := NewNDPQueue(NDPQueueConfig{Trim: true})
	nq.Enqueue(dataPkt(1, 1538, false), 0)
	nq.data.bytes++
	if err := AuditQdisc(nq); err == nil {
		t.Error("NDPQueue data drift not detected")
	}

	xq := NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(10 * sim.Gbps)})
	xq.Enqueue(&Packet{Type: Credit, WireSize: CreditSize}, 0)
	xq.credits.bytes--
	if err := AuditQdisc(xq); err == nil {
		t.Error("XPassQdisc credit drift not detected")
	}
}

func TestAuditQdiscUnwrapsInstrumentation(t *testing.T) {
	f := NewFIFO(0)
	q := Qdisc(&tracedQdisc{Qdisc: &ImpairedQdisc{inner: f, li: &LinkImpairment{}}, tracer: NewCountingTracer(), where: "t"})
	f.Enqueue(dataPkt(1, 1538, false), 0)
	if err := AuditQdisc(q); err != nil {
		t.Fatalf("wrapped clean queue failed audit: %v", err)
	}
	f.q.bytes = 42
	if err := AuditQdisc(q); err == nil {
		t.Fatal("drift behind wrappers not detected")
	}
}

// TestDropTotalsThroughInstrumentation is the regression for drop counters
// vanishing from aggregation once a port was instrumented: dropCounterOf
// used to return false for the tracing wrapper, so every audited or traced
// run reported zero switch drops.
func TestDropTotalsThroughInstrumentation(t *testing.T) {
	eng := sim.NewEngine()
	sd := NewSelectiveDrop(1000, 2000)
	pt := NewPort(eng, sd, 10*sim.Gbps, sim.Microsecond, nil, "sw0->h0")
	ports := []*Port{pt}
	InstrumentPorts(ports, NewCountingTracer())

	// Two unscheduled packets: the second exceeds the selective threshold.
	pt.Q.Enqueue(dataPkt(1, 800, false), eng.Now())
	pt.Q.Enqueue(dataPkt(1, 800, false), eng.Now())
	tot := DropTotals(ports)
	if tot[DropSelective] != 1 {
		t.Fatalf("DropTotals through instrumented port = %v, want 1 selective drop", tot)
	}
}

// TestDropTotalsCounterInterface checks the generic Counter()-based
// resolution that reaches disciplines defined outside this package.
func TestDropTotalsCounterInterface(t *testing.T) {
	var dc DropCounter
	if dc.Counter() != &dc {
		t.Fatal("Counter() must expose the embedded counter itself")
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
