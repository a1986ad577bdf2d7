package netem

import (
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

func TestWriterTracerFormatsAndFilters(t *testing.T) {
	var sb strings.Builder
	tr := &WriterTracer{W: &sb, Filter: func(p *Packet) bool { return p.Flow == 1 }}
	tr.Trace(sim.Time(sim.Microsecond), TraceEnqueue, "sw0->h1", dataPkt(1, 1538, true))
	tr.Trace(sim.Time(sim.Microsecond), TraceDrop, "sw0->h1", dataPkt(2, 1538, false))
	if tr.Events != 1 {
		t.Fatalf("events = %d, want 1 (filter)", tr.Events)
	}
	out := sb.String()
	if !strings.Contains(out, "ENQ") || !strings.Contains(out, "sw0->h1") {
		t.Fatalf("trace line: %q", out)
	}
}

func TestCountingTracer(t *testing.T) {
	tr := NewCountingTracer()
	tr.Trace(0, TraceDeliver, "host1", dataPkt(1, 1538, true))
	tr.Trace(0, TraceDeliver, "host1", dataPkt(2, 1538, true))
	tr.Trace(0, TraceDrop, "sw", &Packet{Type: Probe, WireSize: 64})
	if tr.Total(TraceDeliver, Data) != 2 {
		t.Fatalf("deliver/data = %d", tr.Total(TraceDeliver, Data))
	}
	if tr.Total(TraceDrop, Probe) != 1 {
		t.Fatalf("drop/probe = %d", tr.Total(TraceDrop, Probe))
	}
	if tr.Total(TraceTrim, Data) != 0 {
		t.Fatal("phantom trim count")
	}
}

func TestInstrumentedPortsAndHosts(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 3, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond},
		func(PortKind, sim.Rate) *Queue { return NewQueue(1, 6000, DefaultBuffer) }, 0)
	attachCollectors(net)
	tr := NewCountingTracer()
	InstrumentPorts(net.AllPorts(), tr)
	InstrumentHosts(net.Hosts, tr)

	// Two senders overload one downlink: enqueues, drops and deliveries
	// must all be observed.
	for i := 0; i < 30; i++ {
		for s := NodeID(0); s < 2; s++ {
			p := dataPkt(uint64(s)*100+uint64(i), 1538, false)
			p.Src, p.Dst = s, 2
			net.Hosts[s].Send(p)
		}
	}
	eng.Run()
	if tr.Total(TraceEnqueue, Data) == 0 {
		t.Fatal("no enqueues traced")
	}
	if tr.Total(TraceDrop, Data) == 0 {
		t.Fatal("no drops traced under 2:1 overload")
	}
	if tr.Total(TraceDeliver, Data) == 0 {
		t.Fatal("no deliveries traced")
	}
	// Conservation: delivered = enqueued at the last hop − nothing (no loss
	// after acceptance); total sent = delivered + dropped at the switch.
	sent := uint64(60)
	if tr.Total(TraceDeliver, Data)+tr.Total(TraceDrop, Data) != sent {
		t.Fatalf("deliver %d + drop %d != sent %d",
			tr.Total(TraceDeliver, Data), tr.Total(TraceDrop, Data), sent)
	}
}

// TestTapsChainInInstallOrder: instrumenting a tapped port or host chains
// the new tracer after the existing one, so each event reaches both, the
// first-installed tracer first.
func TestTapsChainInInstallOrder(t *testing.T) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond}, nil, 0)
	var log []string
	for _, name := range []string{"first", "second"} {
		tr := TraceFunc(func(_ sim.Time, ev TraceEvent, where string, _ *Packet) {
			log = append(log, name+" "+ev.String()+" "+where)
		})
		InstrumentPorts(net.AllPorts(), tr)
		InstrumentHosts(net.Hosts, tr)
	}
	p := net.Pool.Get()
	p.Type, p.Src, p.Dst, p.WireSize = Data, 0, 1, 1000
	net.Hosts[0].Send(p)
	eng.Run()
	want := "first ENQ h0->sw0; second ENQ h0->sw0; first ENQ sw0->h1; second ENQ sw0->h1; " +
		"first DELIVER host1; second DELIVER host1"
	if got := strings.Join(log, "; "); got != want {
		t.Fatalf("events:\n%s\nwant\n%s", got, want)
	}
}

// TestTraceTrimEvent overflows an NDP port's data band: Port.Send reports
// the packet the queue cut to a header as a trim, not an enqueue or a drop.
func TestTraceTrimEvent(t *testing.T) {
	tr := NewCountingTracer()
	pt := NewPort(sim.NewEngine(), NewQueue(1, 0, 2*9000).WithControl(DefaultBuffer, true),
		10*sim.Gbps, 0, nil, "t")
	InstrumentPorts([]*Port{pt}, tr)
	// The first packet goes straight to the serializer, the next two fill
	// the data band, and the fourth overflows it.
	for i := 0; i < 4; i++ {
		pt.Send(dataPkt(uint64(i), 9000, false))
	}
	if tr.Total(TraceTrim, Data) != 1 {
		t.Fatalf("trim events = %d, want 1", tr.Total(TraceTrim, Data))
	}
	if tr.Total(TraceEnqueue, Data) != 3 {
		t.Fatalf("enqueue events = %d, want 3", tr.Total(TraceEnqueue, Data))
	}
	if pt.Drops != [NumDropReasons]uint64{} {
		t.Fatalf("drops %v, want none: a trim is not a drop", pt.Drops)
	}
}

func TestTraceEventString(t *testing.T) {
	if TraceEnqueue.String() != "ENQ" || TraceEvent(99).String() != "?" {
		t.Fatal("TraceEvent.String mismatch")
	}
}
