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
		func(PortKind, sim.Rate) Qdisc { return NewQueue(1, 6000, DefaultBuffer) }, 0)
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

func TestTraceTrimEvent(t *testing.T) {
	tr := NewCountingTracer()
	q := NewNDPQueue(NDPQueueConfig{Trim: true, DataLimitBytes: 2 * 9000})
	traced := &tracedQdisc{Qdisc: q, tracer: tr, where: "t"}
	for i := 0; i < 2; i++ {
		if traced.Enqueue(dataPkt(uint64(i), 9000, false), 0) != Queued {
			t.Fatal("fill dropped")
		}
	}
	over := dataPkt(9, 9000, false)
	if traced.Enqueue(over, 0) != Queued {
		t.Fatal("overflow should trim, not drop")
	}
	if tr.Total(TraceTrim, Data) != 1 {
		t.Fatalf("trim events = %d, want 1", tr.Total(TraceTrim, Data))
	}
	if tr.Total(TraceEnqueue, Data) != 2 {
		t.Fatalf("enqueue events = %d, want 2", tr.Total(TraceEnqueue, Data))
	}
}

func TestTraceEventString(t *testing.T) {
	if TraceEnqueue.String() != "ENQ" || TraceEvent(99).String() != "?" {
		t.Fatal("TraceEvent.String mismatch")
	}
}
