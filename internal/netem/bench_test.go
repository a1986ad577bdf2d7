package netem

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/raceflag"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// The qdisc benchmarks call through the Qdisc interface, as Port does.

// BenchmarkSelectiveDrop measures the Aeolus switch queue's hot path.
func BenchmarkSelectiveDrop(b *testing.B) {
	var q Qdisc = NewQueue(1, 6<<10, DefaultBuffer)
	p := dataPkt(1, 1538, false)
	s := dataPkt(2, 1538, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, 0)
		q.Enqueue(s, 0)
		q.Dequeue(0)
		q.Dequeue(0)
	}
}

// BenchmarkPrioQdisc measures the 8-band strict-priority queue.
func BenchmarkPrioQdisc(b *testing.B) {
	var q Qdisc = NewQueue(8, 0, DefaultBuffer)
	pkts := make([]*Packet, 8)
	for i := range pkts {
		pkts[i] = dataPkt(uint64(i), 1538, false)
		pkts[i].Prio = uint8(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(pkts[i%8], 0)
		q.Dequeue(0)
	}
}

// BenchmarkXPassQdisc measures the shaped credit queue plus data path.
func BenchmarkXPassQdisc(b *testing.B) {
	var q Qdisc = NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(100 * sim.Gbps)})
	credit := &Packet{Type: Credit, WireSize: CreditSize}
	data := dataPkt(1, 1538, true)
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		q.Enqueue(credit, now)
		q.Enqueue(data, now)
		q.Dequeue(now)
		q.Dequeue(now)
		now += sim.Time(200 * sim.Nanosecond)
	}
}

// BenchmarkFabricForwarding measures end-to-end packet cost across the
// two-tier fabric: host -> leaf -> spine -> leaf -> host. Packets come from
// the network's pool, as they do in real runs, so the steady state recycles
// instead of allocating.
func BenchmarkFabricForwarding(b *testing.B) {
	eng := sim.NewEngine()
	net := BuildClos(eng, TopoSpec{HostsPerEdge: 2, Tiers: []TierSpec{{Switches: 2}, {Switches: 2}},
		HostRate: 100 * sim.Gbps, LinkDelay: 500 * sim.Nanosecond}, nil, 0)
	for _, h := range net.Hosts {
		h.EP = nopEndpoint{}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := net.Pool.Get()
		p.Type, p.Flow, p.WireSize, p.Scheduled = Data, uint64(i), 1538, true
		p.Src, p.Dst, p.PathID = 0, 3, uint32(i)
		net.Hosts[0].Send(p)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkPortPath measures one port's enqueue -> serialize -> deliver
// cycle in isolation — the allocation-regression reference (see
// TestPortPathAllocs for the committed ceiling).
func BenchmarkPortPath(b *testing.B) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	host := &Host{ID: 0, Eng: eng, EP: nopEndpoint{}, Pool: pool}
	pt := NewPort(eng, NewQueue(1, 0, DefaultBuffer), 100*sim.Gbps, 500*sim.Nanosecond, host, "bench")
	pt.Pool = pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pool.Get()
		p.Type, p.Flow, p.WireSize, p.Scheduled = Data, uint64(i), 1538, true
		pt.Send(p)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// portPathAllocCeiling is the committed allocation budget for the port path,
// in average allocations per enqueue->deliver cycle. The steady state is
// zero; the headroom absorbs engine free-list growth on unusual schedules.
// Raising it is an allocation regression and needs a PR justifying why.
const portPathAllocCeiling = 2.0

// TestPortPathAllocs is the allocation regression gate: the steady-state
// port path must stay under portPathAllocCeiling allocations per packet
// (the pre-pooling baseline was 17).
func TestPortPathAllocs(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	host := &Host{ID: 0, Eng: eng, EP: nopEndpoint{}, Pool: pool}
	pt := NewPort(eng, NewQueue(1, 0, DefaultBuffer), 100*sim.Gbps, 500*sim.Nanosecond, host, "gate")
	pt.Pool = pool
	var flow uint64
	cycle := func() {
		p := pool.Get()
		flow++
		p.Type, p.Flow, p.WireSize, p.Scheduled = Data, flow, 1538, true
		pt.Send(p)
		eng.Run()
	}
	// Warm the pool and the engine free-list before measuring.
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > portPathAllocCeiling {
		t.Errorf("port path allocates %.2f objects per packet, ceiling %v", avg, portPathAllocCeiling)
	}
}

// churnLivePackets is the standing live population of the slab-churn
// benchmark: 8 chunks (~450 KB of packets) so the working set spans several
// slab chunks and outsizes L1/L2 — the in-flight population of a loaded
// fabric rather than a single port's handful.
const churnLivePackets = 8 * PacketChunkSize

// BenchmarkPacketSlabChurn measures the pool's steady-state Get/Put cycle
// against the multi-chunk live set: each op retires the oldest live packet
// and replaces it, so the free-list, the reset write and the slab storage all
// churn across chunk boundaries instead of reusing one hot slot.
func BenchmarkPacketSlabChurn(b *testing.B) {
	pool := NewPacketPool()
	ring := make([]*Packet, churnLivePackets)
	for i := range ring {
		ring[i] = pool.Get()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % churnLivePackets
		pool.Put(ring[j])
		p := pool.Get()
		p.Type, p.Flow, p.WireSize = Data, uint64(i), 1538
		ring[j] = p
	}
}

// Committed slab-churn budgets for the CI smoke gate. Steady-state recycling
// allocates nothing (every Get is a free-list pop once the slab is carved);
// the ns ceiling is an order of magnitude above the recorded number so only a
// structural regression — per-Get allocation or a scattered layout — trips it.
const (
	slabChurnNsCeiling    = 500
	slabChurnAllocCeiling = 0.05
	slabGateIterations    = 20000
)

// TestPacketSlabChurnGate is the packet-slab regression gate run by
// `make bench-smoke`.
func TestPacketSlabChurnGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	pool := NewPacketPool()
	ring := make([]*Packet, churnLivePackets)
	for i := range ring {
		ring[i] = pool.Get()
	}
	var i int
	cycle := func() {
		j := i % churnLivePackets
		pool.Put(ring[j])
		p := pool.Get()
		p.Type, p.Flow, p.WireSize = Data, uint64(i), 1538
		ring[j] = p
		i++
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > slabChurnAllocCeiling {
		t.Errorf("slab churn allocates %.3f objects/op, ceiling %v", avg, slabChurnAllocCeiling)
	}
	if raceflag.Enabled {
		return // ns ceilings are meaningless under race instrumentation
	}
	res := testing.Benchmark(func(b *testing.B) {
		pool := NewPacketPool()
		ring := make([]*Packet, churnLivePackets)
		for i := range ring {
			ring[i] = pool.Get()
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			j := n % churnLivePackets
			pool.Put(ring[j])
			p := pool.Get()
			p.Type, p.Flow, p.WireSize = Data, uint64(n), 1538
			ring[j] = p
		}
	})
	if ns := res.NsPerOp(); res.N >= slabGateIterations && ns > slabChurnNsCeiling {
		t.Errorf("slab churn %d ns/op, ceiling %d", ns, slabChurnNsCeiling)
	}
}

type nopEndpoint struct{}

func (nopEndpoint) Receive(*Packet) {}
