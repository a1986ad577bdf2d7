package netem

import "github.com/aeolus-transport/aeolus/internal/sim"

// This file is the netem half of the spatially-sharded engine: a topology
// partitioner that cuts a Clos fabric along pod boundaries, a per-port
// cross-shard hook (Port.X), and the exchange that moves packet delivery
// events between shard engines in deterministic order.
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

// handoff is one cross-shard packet delivery awaiting its destination's
// next window: the packet (with its in-flight destination already recorded
// in p.next), the absolute delivery time, and the instant the source shard
// put it on the wire (the event's tie-break stamp — see
// Engine.AtHandlerFrom). The buffer it sits in names the shard pair.
type handoff struct {
	at, gen sim.Time
	p       *Packet
}

// CrossLink is the per-port hook installed on every port whose destination
// node lives in another shard. depart runs on the source shard's goroutine
// inside a window and appends to that shard's own outbox.
type CrossLink struct {
	bar      *crossBar
	src, dst int
}

func (x *CrossLink) depart(p *Packet, at, gen sim.Time) {
	out := &x.bar.box[x.bar.cur][x.src]
	out.to[x.dst] = append(out.to[x.dst], handoff{at: at, gen: gen, p: p})
	if at < out.min {
		out.min = at
	}
}

// outbox is the handoffs one source shard generated in one window, by
// destination shard, in generation order, with the earliest delivery time
// among them (MaxTime when there are none).
type outbox struct {
	to  [][]handoff
	min sim.Time
}

// crossBar holds two outboxes per source shard, one per window parity.
// During a window each shard appends only to its own outbox of parity cur,
// while every shard reads the other parity: its inbox (the outboxes' entries
// for it) and, for boundary accounting, its own previous outbox. The group
// flips cur between windows with every shard parked, and a shard clears its
// outbox of parity cur in Deliver, before it appends to it again — after the
// window in which it was last read. So every buffer has one writer, no
// reader overlaps a write, and no lock is needed anywhere on the packet
// path.
type crossBar struct {
	box   [2][]outbox // [parity][source shard]
	cur   int
	bound []Boundary // per shard; nil entries book nothing
}

// A Boundary books the handoffs of one shard as they cross the cut: Depart
// for each packet the shard handed to another, Arrive for each it received.
// Both run inside the shard's Deliver, on its goroutine. By then a departed
// packet may already be in its destination's hands, so Depart must use the
// packet as an identity only and read nothing of it.
type Boundary interface {
	Depart(p *Packet)
	Arrive(p *Packet)
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
// an unsharded build — node IDs, labels, port orders, routes and BaseRTT
// are byte-identical — and then re-homed: every host, switch and
// port is assigned to its shard's engine and packet pool, and every port
// whose destination is foreign gets a CrossLink. shards must already be an
// effective count from ShardCount (≥ 1); with shards == 1 the result is the
// BuildClos network itself: the re-homing pass is skipped, and the shard
// accessors below answer with the whole network.
func BuildShardedClos(spec TopoSpec, shards int, sched sim.SchedulerKind, qf QueueFactory, frameBytes int) *ShardedNetwork {
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
	sn.bar = &crossBar{bound: make([]Boundary, shards)}
	for par := range sn.bar.box {
		sn.bar.box[par] = make([]outbox, shards)
		for src := range sn.bar.box[par] {
			sn.bar.box[par][src] = outbox{to: make([][]handoff, shards), min: sim.MaxTime}
		}
	}
	sn.hostsOf = make([][]*Host, shards)
	sn.portsOf = make([][]*Port, shards)
	sp := spec.normalized()

	// Assignment. Hosts follow their edge switch; edge switches map to
	// contiguous shard blocks; any switch joins the shard that owns its
	// whole down window (an edge switch's hosts always lie in one), or is
	// spread by index when the window crosses shards.
	edges := sp.Tiers[0].Switches
	sn.hostShard = make([]int, len(net.Hosts))
	for id := range net.Hosts {
		s := (id / sp.HostsPerEdge) * shards / edges
		sn.hostShard[id] = s
		sn.hostsOf[s] = append(sn.hostsOf[s], net.Hosts[id])
	}
	swShard := make(map[*Switch]int, len(net.Switches))
	idx := 0
	for _, tier := range sp.Tiers {
		for i := 0; i < tier.Switches; i++ {
			sw := net.Switches[idx]
			idx++
			if s := sn.hostShard[sw.lo]; s == sn.hostShard[sw.lo+sw.span-1] {
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

// SetBoundary installs b as shard i's boundary observer (see Boundary).
// Install before the run starts; a one-shard network has no boundary.
func (sn *ShardedNetwork) SetBoundary(i int, b Boundary) { sn.bar.bound[i] = b }

// The exchange of a sharded run: ShardedNetwork implements sim.Exchange.

// Turn makes the handoffs the window just run generated the inboxes of the
// next. It runs with every shard parked.
func (sn *ShardedNetwork) Turn() { sn.bar.cur ^= 1 }

// Pending returns the earliest delivery time among the handoffs not yet
// delivered.
func (sn *ShardedNetwork) Pending() (sim.Time, bool) {
	t := sim.MaxTime
	for _, out := range sn.bar.box[sn.bar.cur^1] {
		t = min(t, out.min)
	}
	return t, t != sim.MaxTime
}

// Deliver schedules shard d's inbox on its engine, on shard d's goroutine
// before its window: the handoffs from each source shard in index order,
// each source's in generation order. With a Boundary installed it books
// the shard's departures of the last window and then each arrival. Last it
// clears the shard's outbox for the window about to run.
//
// The walk needs no sort. Deliveries fire in (time, schedAt, seq) order,
// and each is stamped with its generation instant (AtHandlerFrom), so two
// handoffs that differ in delivery or generation time fire in that order
// whatever seq they take; only a tie in both falls to seq, which the walk
// issues in (source shard, generation order). Every seq is issued after the
// shard's events of the window that generated the handoff and before any
// of the next, since nothing else runs on the engine in between. Every
// delivery time is ≥ that window's start + Lookahead, after the clock it
// left, so a delivery never lands in the shard's past.
func (sn *ShardedNetwork) Deliver(d int) {
	bar := sn.bar
	in := bar.box[bar.cur^1]
	b := bar.bound[d]
	if b != nil {
		for _, hs := range in[d].to {
			for _, h := range hs {
				b.Depart(h.p)
			}
		}
	}
	eng := sn.Engines[d]
	for src := range in {
		for _, h := range in[src].to[d] {
			if b != nil {
				b.Arrive(h.p)
			}
			eng.AtHandlerFrom(h.at, h.gen, h.p)
		}
	}
	out := &bar.box[bar.cur][d]
	for dst := range out.to {
		out.to[dst] = out.to[dst][:0]
	}
	out.min = sim.MaxTime
}
