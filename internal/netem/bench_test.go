package netem

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"github.com/aeolus-transport/aeolus/internal/raceflag"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// The queue benchmarks call *Queue directly, as Port does.

// BenchmarkSelectiveDrop measures the Aeolus switch queue's hot path.
func BenchmarkSelectiveDrop(b *testing.B) {
	q := NewQueue(1, 6<<10, DefaultBuffer)
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
	q := NewQueue(8, 0, DefaultBuffer)
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

// BenchmarkXPassQdisc measures the shaped credit band plus data path.
func BenchmarkXPassQdisc(b *testing.B) {
	q := NewQueue(1, 0, DefaultBuffer).WithCredits(100 * sim.Gbps)
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

// BenchmarkFabricForwarding measures end-to-end packet cost across a
// two-tier fabric: host -> leaf -> spine -> leaf -> host. Packets come from
// the network's pool, as they do in real runs, so the steady state recycles
// instead of allocating. clos2 sends from host 0 to host 3 of a 4-host
// fabric, whose few ports stay cache-hot; clos32 sends over the scale
// sweep's 1,024-host fabric along a fixed sequence of host pairs and
// PathIDs.
func BenchmarkFabricForwarding(b *testing.B) {
	b.Run("clos2", func(b *testing.B) {
		forwardPackets(b, 2, func(i int) (src, dst NodeID, pathID uint32) { return 0, 3, uint32(i) })
	})
	b.Run("clos32", func(b *testing.B) {
		type send struct {
			src, dst NodeID
			pathID   uint32
		}
		r := rand.New(rand.NewPCG(1, 2))
		seq := make([]send, 4096)
		for i := range seq {
			src := r.IntN(1024)
			seq[i] = send{NodeID(src), NodeID((src + 1 + r.IntN(1023)) % 1024), r.Uint32()}
		}
		forwardPackets(b, 32, func(i int) (NodeID, NodeID, uint32) {
			s := seq[i%len(seq)]
			return s.src, s.dst, s.pathID
		})
	})
}

// forwardPackets sends b.N pooled packets over the scale sweep's fabric at
// width, the i-th along next(i), running the engine every 64 sends.
func forwardPackets(b *testing.B, width int, next func(i int) (src, dst NodeID, pathID uint32)) {
	eng := sim.NewEngine()
	net := BuildClos(eng, scaleSpec(width), nil, 0)
	for _, h := range net.Hosts {
		h.EP = nopEndpoint{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := net.Pool.Get()
		p.Type, p.Flow, p.WireSize, p.Scheduled = Data, uint64(i), 1538, true
		p.Src, p.Dst, p.PathID = next(i)
		net.Hosts[p.Src].Send(p)
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

// TestTracedDeliveryAllocs gates the host tap: a traced delivery allocates
// nothing, because InstrumentHosts computes the host's label once.
func TestTracedDeliveryAllocs(t *testing.T) {
	pool := NewPacketPool()
	host := &Host{ID: 3, Eng: sim.NewEngine(), EP: nopEndpoint{}, Pool: pool}
	InstrumentHosts([]*Host{host}, NewCountingTracer())
	deliver := func() {
		p := pool.Get()
		p.Type, p.WireSize = Data, 1538
		host.Receive(p)
	}
	deliver() // warm the pool and the tracer's maps
	if avg := testing.AllocsPerRun(1000, deliver); avg != 0 {
		t.Errorf("a traced delivery allocates %.2f objects, want 0", avg)
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
	// Time slabGateIterations cycles, best of three passes: a fixed op count
	// costs milliseconds, and the best pass discounts a preemption or a GC
	// cycle that lands in another.
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for n := 0; n < slabGateIterations; n++ {
			cycle()
		}
		best = min(best, time.Since(start))
	}
	if ns := best.Nanoseconds() / slabGateIterations; ns > slabChurnNsCeiling {
		t.Errorf("slab churn %d ns/op, ceiling %d", ns, slabChurnNsCeiling)
	}
}

// TestQueueBufferFollowsBacklog gates the ring FIFO: a queue's buffer is
// sized by its peak backlog, not its busy period. 100k packets stream
// through a FIFO whose backlog never exceeds 4, and through the ExpressPass
// credit band held at its 15-credit cap (creditLimit). Each
// ring must end at the next power of two of its backlog (8 and 16 slots),
// allocating once per size it reaches — 8, then 16 for the credits — and
// never while the stream passes.
func TestQueueBufferFollowsBacklog(t *testing.T) {
	const packets = 100_000
	cases := []struct {
		name    string
		q       *Queue
		ring    func(*Queue) *fifo
		typ     PacketType
		backlog int
		slots   int
		allocs  uint64
	}{
		{"fifo", NewQueue(1, 0, 0), func(q *Queue) *fifo { return &q.bands[0] }, Data, 4, 8, 1},
		{"xpass credits", NewQueue(1, 0, DefaultBuffer).WithCredits(100 * sim.Gbps),
			func(q *Queue) *fifo { return &q.front.fifo }, Credit, creditLimit, 16, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pkts := make([]*Packet, c.backlog)
			for i := range pkts {
				pkts[i] = &Packet{Type: c.typ, WireSize: CreditSize}
			}
			now := sim.Time(0)
			allocs := mallocs(func() {
				for _, p := range pkts {
					if r := c.q.Enqueue(p, now); r != Queued {
						t.Fatalf("filling to a backlog of %d: %v", c.backlog, r)
					}
				}
				// Each step serves the head and requeues it, so the backlog
				// holds while the live range walks round the ring.
				for range packets {
					now = now.Add(sim.Microsecond)
					p := c.q.Dequeue(now)
					if p == nil {
						t.Fatal("dequeue returned nil with a backlog")
					}
					c.q.Enqueue(p, now)
				}
			})
			if got := c.q.Backlog().Packets; got != c.backlog {
				t.Errorf("backlog %d after the stream, want %d", got, c.backlog)
			}
			if got := len(c.ring(c.q).ring); got > c.slots {
				t.Errorf("%d packets at a backlog of %d left a %d-slot buffer, want at most %d",
					packets, c.backlog, got, c.slots)
			}
			if allocs > c.allocs {
				t.Errorf("%d packets at a backlog of %d allocated %d times, want at most %d",
					packets, c.backlog, allocs, c.allocs)
			}
		})
	}
}

// mallocs counts the heap allocations f makes, on one P as
// testing.AllocsPerRun does, but for a single call including its first.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

type nopEndpoint struct{}

func (nopEndpoint) Receive(*Packet) {}
