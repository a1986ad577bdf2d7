package netem

import (
	"cmp"
	"slices"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// This file is the netem half of the spatially-sharded engine: a topology
// partitioner that cuts a Clos fabric along pod boundaries, a per-port
// cross-shard hook (Port.X), and the barrier exchange that moves packet
// delivery events between shard engines in deterministic order.
//
// The partitioning rule reuses the TopoSpec tier structure. An edge switch
// and the hosts under it form the indivisible unit; contiguous runs of
// edge units map to shards. A higher-tier switch whose downward reach lies
// entirely inside one shard joins that shard (fat-tree pods stay whole);
// switches that reach across shards — spines, cores — are spread over the
// shards by index. Every link that ends up crossing the cut is a fabric
// link (LinkDelay propagation at the fabric rate), so the conservative
// lookahead — the minimum over cross links of propagation delay plus the
// serialization time of a minimum-size frame — equals the core-link
// latency, independent of how many shards the fabric is cut into.

// Handoff is one cross-shard packet delivery awaiting a window barrier:
// the packet (with its in-flight destination already recorded in p.next),
// the absolute delivery time, the instant the source shard put it on the
// wire (the event's tie-break stamp — see Engine.AtHandlerFrom), and the
// shard pair it crosses.
type Handoff struct {
	At  sim.Time
	Gen sim.Time
	P   *Packet
	Src int
	Dst int
}

// CrossLink is the per-port hook installed on every port whose destination
// node lives in another shard. depart runs on the source shard's goroutine
// inside a window and appends to that shard's single-writer buffer; the
// buffers are drained at the barrier, with every worker parked.
type CrossLink struct {
	bar      *crossBar
	src, dst int
}

func (x *CrossLink) depart(p *Packet, at, gen sim.Time) {
	x.bar.out[x.src] = append(x.bar.out[x.src], Handoff{At: at, Gen: gen, P: p, Src: x.src, Dst: x.dst})
}

// crossBar holds the per-source-shard handoff buffers. Each buffer has
// exactly one writer (its shard's goroutine, during a window) and is read
// only at the barrier; the ShardGroup's park/resume edges order the
// accesses, so no locking is needed anywhere on the packet path.
type crossBar struct {
	out     [][]Handoff
	scratch []Handoff
}

// ShardedNetwork is a Network partitioned into spatial shards: one engine
// and one packet pool per shard, a host/switch → shard assignment, the
// conservative lookahead of the cut, and the handoff exchange.
type ShardedNetwork struct {
	Net       *Network
	Engines   []*sim.Engine
	Pools     []*PacketPool
	Lookahead sim.Duration

	hostShard []int
	hostsOf   [][]*Host
	portsOf   [][]*Port
	bar       *crossBar
	crossed   int // cross-shard ports (diagnostics)
}

// ShardCount returns the effective shard count for a spec: the request
// clamped to [1, number of edge switches] — an edge switch and its hosts
// are never split. Single-pod topologies therefore collapse to one shard,
// which the harness executes on its engine directly.
func ShardCount(spec TopoSpec, requested int) int {
	n := spec.normalized()
	edges := 0
	if len(n.Tiers) > 0 {
		edges = n.Tiers[0].Switches
	}
	if requested > edges {
		requested = edges
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// BuildShardedClos builds the fabric a TopoSpec describes, partitioned into
// shards engines. The network is wired by the exact same BuildClos pass as
// an unsharded build — node IDs, labels, port orders, routing tables and
// BaseRTT are byte-identical — and then re-homed: every host, switch and
// port is assigned to its shard's engine and packet pool, and every port
// whose destination is foreign gets a CrossLink. shards must already be an
// effective count from ShardCount (≥ 1); with shards == 1 the result is the
// BuildClos network itself: the re-homing pass is skipped, and the shard
// accessors below answer with the whole network.
func BuildShardedClos(spec TopoSpec, shards int, sched sim.SchedulerKind, qf QdiscFactory, frameBytes int) *ShardedNetwork {
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngineWith(sched)
	}
	net := BuildClos(engines[0], spec, qf, frameBytes)
	sn := &ShardedNetwork{Net: net, Engines: engines, Pools: make([]*PacketPool, shards)}
	sn.Pools[0] = net.Pool
	if shards == 1 {
		return sn
	}
	for i := 1; i < shards; i++ {
		sn.Pools[i] = NewPacketPool()
	}
	sn.bar = &crossBar{out: make([][]Handoff, shards)}
	sn.hostsOf = make([][]*Host, shards)
	sn.portsOf = make([][]*Port, shards)
	sp := spec.normalized()

	// Assignment. Hosts follow their edge switch; edge switches map to
	// contiguous shard blocks; a higher-tier switch joins the shard that
	// owns its whole downward reach, or is spread by index when the reach
	// crosses shards.
	edges := sp.Tiers[0].Switches
	sn.hostShard = make([]int, len(net.Hosts))
	for id := range net.Hosts {
		s := (id / sp.HostsPerEdge) * shards / edges
		sn.hostShard[id] = s
		sn.hostsOf[s] = append(sn.hostsOf[s], net.Hosts[id])
	}
	spans, perReach := sp.reachGeometry()
	swShard := make(map[*Switch]int, len(net.Switches))
	idx := 0
	for t, tier := range sp.Tiers {
		for i := 0; i < tier.Switches; i++ {
			sw := net.Switches[idx]
			idx++
			if t == 0 {
				swShard[sw] = i * shards / edges
				continue
			}
			lo := i / perReach[t] * spans[t]
			hi := lo + spans[t]
			if s := sn.hostShard[lo]; s == sn.hostShard[hi-1] {
				swShard[sw] = s
			} else {
				swShard[sw] = i * shards / tier.Switches
			}
		}
	}

	shardOfNode := func(n Node) int {
		switch v := n.(type) {
		case *Host:
			return sn.hostShard[v.ID]
		case *Switch:
			return swShard[v]
		}
		return 0
	}

	// Re-home every element and install cross-links. BuildClos schedules no
	// events, so reassigning engines after the build cannot orphan state.
	rehomePort := func(pt *Port, s int) {
		pt.Eng = engines[s]
		pt.Pool = sn.Pools[s]
		sn.portsOf[s] = append(sn.portsOf[s], pt)
		if d := shardOfNode(pt.Dst); d != s {
			pt.X = &CrossLink{bar: sn.bar, src: s, dst: d}
			sn.crossed++
			la := pt.Delay + sim.TxTime(HeaderSize, pt.Rate)
			if sn.Lookahead == 0 || la < sn.Lookahead {
				sn.Lookahead = la
			}
		}
	}
	for _, h := range net.Hosts {
		s := sn.hostShard[h.ID]
		h.Eng = engines[s]
		h.Pool = sn.Pools[s]
		rehomePort(h.NIC, s)
	}
	for _, sw := range net.Switches {
		s := swShard[sw]
		sw.Eng = engines[s]
		for _, pt := range sw.Ports {
			rehomePort(pt, s)
		}
	}
	return sn
}

// Shards returns the number of shards.
func (sn *ShardedNetwork) Shards() int { return len(sn.Engines) }

// HostShard returns the shard owning a host.
func (sn *ShardedNetwork) HostShard(id NodeID) int {
	if sn.hostShard == nil {
		return 0
	}
	return sn.hostShard[id]
}

// ShardHosts returns the hosts shard i owns.
func (sn *ShardedNetwork) ShardHosts(i int) []*Host {
	if sn.hostsOf == nil {
		return sn.Net.Hosts
	}
	return sn.hostsOf[i]
}

// ShardPorts returns every port homed on shard i, NICs included. The shard
// sets partition AllPorts: each port fires its events on exactly one shard's
// engine, which is what per-shard audit instrumentation relies on.
func (sn *ShardedNetwork) ShardPorts(i int) []*Port {
	if sn.portsOf == nil {
		return sn.Net.AllPorts()
	}
	return sn.portsOf[i]
}

// CrossPorts returns how many ports carry a CrossLink.
func (sn *ShardedNetwork) CrossPorts() int { return sn.crossed }

// View returns the per-shard view of the network: the shared structure with
// the engine, packet pool and endpoint-host set of one shard. A protocol
// instance built over a view attaches endpoints only to the shard's own
// hosts and allocates packets only from the shard's pool. A one-shard
// network is its own view.
func (sn *ShardedNetwork) View(i int) *Network {
	if len(sn.Engines) == 1 {
		return sn.Net
	}
	v := *sn.Net
	v.Eng = sn.Engines[i]
	v.Pool = sn.Pools[i]
	v.localHosts = sn.hostsOf[i]
	return &v
}

// Flush runs at a window barrier, with every shard worker parked: it merges
// the handoffs generated during the window into deterministic (time,
// srcShard, generation order) order, invokes visit for each (when non-nil —
// the audit layer's boundary accounting), and schedules each delivery on
// its destination shard's engine. Every handoff time is ≥ window start +
// Lookahead and every engine clock is at window end (start + Lookahead - 1),
// so the schedules can never land in a shard's past. Returns the number of
// handoffs exchanged.
func (sn *ShardedNetwork) Flush(visit func(h Handoff)) int {
	bar := sn.bar
	bar.scratch = bar.scratch[:0]
	for i := range bar.out {
		bar.scratch = append(bar.scratch, bar.out[i]...)
		bar.out[i] = bar.out[i][:0]
	}
	// Within one source shard the buffer is already in generation order; a
	// stable sort on (delivery time, generation time, source shard) keeps
	// it, making the merged order — and therefore the destination engines'
	// event sequence — independent of scheduling accidents, and consistent
	// with the (time, schedAt, seq) dispatch order the stamps induce.
	slices.SortStableFunc(bar.scratch, func(a, b Handoff) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Gen, b.Gen), cmp.Compare(a.Src, b.Src))
	})
	// Backdating each delivery to its generation instant restores the
	// scheduling order of the sequential run: a delivery competing with a
	// locally scheduled event for the same timestamp wins exactly when its
	// packet departed before the local decision was made, which is the order
	// a single engine executing both shards would have produced.
	for _, h := range bar.scratch {
		if visit != nil {
			visit(h)
		}
		sn.Engines[h.Dst].AtHandlerFrom(h.At, h.Gen, h.P)
	}
	return len(bar.scratch)
}
