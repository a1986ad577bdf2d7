package netem

import (
	"fmt"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

func testQueue(kind PortKind, rate sim.Rate) *Queue { return NewQueue(1, 0, DefaultBuffer) }

func TestShardCountClamps(t *testing.T) {
	tests := []struct {
		spec      TopoSpec
		requested int
		want      int
	}{
		{microSpec, 4, 1},     // single edge switch never splits
		{microSpec, 0, 1},     // floor at one shard
		{leafSpineSpec, 0, 1}, // floor at one shard
		{leafSpineSpec, 3, 3},
		{leafSpineSpec, 99, 8}, // at most one shard per edge switch
		{fatTreeSpec, 8, 8},
	}
	for _, tt := range tests {
		if got := ShardCount(tt.spec, tt.requested); got != tt.want {
			t.Errorf("ShardCount(%d edges, %d) = %d, want %d",
				tt.spec.Tiers[0].Switches, tt.requested, got, tt.want)
		}
	}
}

// TestShardedClosPartition checks the structural contract of the partitioner
// on the leaf-spine fabric: hosts follow their edge switch in contiguous
// blocks, switches join the shard their down window lies in or are spread,
// the shard host/port sets partition the network, every element is homed on
// its shard's engine and pool, and exactly the ports whose peer lives
// elsewhere carry a CrossLink.
func TestShardedClosPartition(t *testing.T) {
	const shards = 4
	sn := BuildShardedClos(leafSpineSpec, shards, sim.SchedWheel, testQueue, 1538)
	if sn.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", sn.Shards(), shards)
	}

	edges := leafSpineSpec.Tiers[0].Switches
	perEdge := leafSpineSpec.HostsPerEdge
	for id := range sn.Net.Hosts {
		want := (id / perEdge) * shards / edges
		if got := sn.HostShard(NodeID(id)); got != want {
			t.Fatalf("host %d on shard %d, want %d", id, got, want)
		}
	}

	seenHosts := map[*Host]bool{}
	for i := 0; i < shards; i++ {
		for _, h := range sn.ShardHosts(i) {
			if seenHosts[h] {
				t.Fatalf("host %d appears in two shards", h.ID)
			}
			seenHosts[h] = true
			if h.Eng != sn.Engines[i] || h.Pool != sn.Pools[i] {
				t.Fatalf("host %d not homed on shard %d's engine/pool", h.ID, i)
			}
		}
	}
	if len(seenHosts) != len(sn.Net.Hosts) {
		t.Fatalf("shard host sets cover %d hosts, network has %d", len(seenHosts), len(sn.Net.Hosts))
	}

	seenPorts := map[*Port]int{}
	crossed := 0
	for i := 0; i < shards; i++ {
		for _, pt := range sn.ShardPorts(i) {
			if prev, dup := seenPorts[pt]; dup {
				t.Fatalf("port %s on shards %d and %d", pt.Label, prev, i)
			}
			seenPorts[pt] = i
			if pt.Eng != sn.Engines[i] || pt.Pool != sn.Pools[i] {
				t.Fatalf("port %s not homed on shard %d's engine/pool", pt.Label, i)
			}
			if pt.X != nil {
				crossed++
				if pt.X.src != i {
					t.Fatalf("port %s cross-link src %d, homed on shard %d", pt.Label, pt.X.src, i)
				}
				if pt.X.dst == i {
					t.Fatalf("port %s cross-link to its own shard", pt.Label)
				}
			}
		}
	}
	if all := sn.Net.AllPorts(); len(seenPorts) != len(all) {
		t.Fatalf("shard port sets cover %d ports, network has %d", len(seenPorts), len(all))
	}
	if crossed != sn.CrossPorts() || crossed == 0 {
		t.Fatalf("counted %d cross ports, CrossPorts() = %d (want equal, nonzero)", crossed, sn.CrossPorts())
	}

	// A leaf joins its hosts' shard; the spines, whose down windows span
	// every shard, are spread over the shards by index.
	for i, sw := range sn.Net.Switches {
		if want := i % edges * shards / edges; sw.Eng != sn.Engines[want] {
			t.Fatalf("switch %s not homed on shard %d", sw.Label, want)
		}
	}

	// Host NICs and edge down-ports never cross: an edge switch and its hosts
	// are the indivisible unit.
	for _, h := range sn.Net.Hosts {
		if h.NIC.X != nil {
			t.Fatalf("host %d NIC carries a cross-link", h.ID)
		}
	}

	// The conservative lookahead of a uniform fabric is one fabric-link
	// propagation delay plus the serialization time of a minimum-size frame.
	want := leafSpineSpec.LinkDelay + sim.TxTime(HeaderSize, leafSpineSpec.coreRate())
	if sn.Lookahead != want {
		t.Fatalf("Lookahead = %v, want %v", sn.Lookahead, want)
	}
}

func TestShardedClosSingleShardHasNoCrossLinks(t *testing.T) {
	sn := BuildShardedClos(leafSpineSpec, 1, sim.SchedWheel, testQueue, 1538)
	if sn.CrossPorts() != 0 {
		t.Fatalf("shards=1 network has %d cross ports", sn.CrossPorts())
	}
	for _, pt := range sn.Net.AllPorts() {
		if pt.X != nil {
			t.Fatalf("port %s carries a cross-link on a one-shard build", pt.Label)
		}
		if pt.Eng != sn.Engines[0] {
			t.Fatalf("port %s not on the single shard engine", pt.Label)
		}
	}
}

// TestShardedClosViews checks the per-shard facade: shared structure, private
// engine, pool and endpoint-host set.
func TestShardedClosViews(t *testing.T) {
	sn := BuildShardedClos(leafSpineSpec, 2, sim.SchedWheel, testQueue, 1538)
	for i := 0; i < 2; i++ {
		v := sn.View(i)
		if v.Eng != sn.Engines[i] || v.Pool != sn.Pools[i] {
			t.Fatalf("view %d does not carry shard %d's engine/pool", i, i)
		}
		if got, want := len(v.EndpointHosts()), len(sn.ShardHosts(i)); got != want {
			t.Fatalf("view %d exposes %d endpoint hosts, want %d", i, got, want)
		}
		if len(v.Hosts) != len(sn.Net.Hosts) {
			t.Fatalf("view %d hides global hosts", i)
		}
	}
}

// recordNode is a delivery target that logs the name of every packet it
// receives.
type recordNode struct {
	names map[*Packet]string
	got   []string
}

func (r *recordNode) Receive(p *Packet) { r.got = append(r.got, r.names[p]) }

// countBoundary counts the departures and arrivals a shard books.
type countBoundary struct{ departs, arrives int }

func (c *countBoundary) Depart(*Packet) { c.departs++ }
func (c *countBoundary) Arrive(*Packet) { c.arrives++ }

// TestDeliverOrder loads handoffs from three sources in scrambled delivery
// order, turns and delivers them, and checks that each destination engine
// fires its inbox in (delivery time, generation time, source shard,
// generation order) order on both schedulers — the order the walk over
// sources produces with no sort — and that each shard books its own
// departures and arrivals. A second window then delivers only its own
// handoff: delivered inboxes are not delivered again.
func TestDeliverOrder(t *testing.T) {
	for _, kind := range []sim.SchedulerKind{sim.SchedWheel, sim.SchedHeap} {
		t.Run(string(kind), func(t *testing.T) {
			sn := BuildShardedClos(leafSpineSpec, 3, kind, testQueue, 1538)
			names := map[*Packet]string{}
			dsts := make([]*recordNode, 3)
			bounds := make([]*countBoundary, 3)
			for i := range dsts {
				dsts[i] = &recordNode{names: names}
				bounds[i] = &countBoundary{}
				sn.SetBoundary(i, bounds[i])
			}
			send := func(src, dst int, at, gen sim.Time, name string) {
				p := &Packet{next: dsts[dst]}
				names[p] = name
				(&CrossLink{bar: sn.bar, src: src, dst: dst}).depart(p, at, gen)
			}
			// Each source's handoffs in generation order (gen nondecreasing).
			send(0, 1, 100, 40, "0a")
			send(0, 2, 150, 40, "0b")
			send(0, 1, 100, 50, "0c")
			send(0, 1, 100, 50, "0d")
			send(0, 2, 120, 60, "0e")
			send(1, 0, 300, 5, "1a")
			send(1, 2, 150, 40, "1b")
			send(1, 0, 100, 40, "1c")
			send(1, 2, 120, 60, "1d")
			send(2, 0, 200, 10, "2a")
			send(2, 0, 100, 40, "2b")
			send(2, 1, 100, 40, "2c")
			send(2, 1, 90, 70, "2d")
			if _, ok := sn.Pending(); ok {
				t.Fatal("handoffs of the running window count as pending before Turn")
			}
			sn.Turn()
			if at, ok := sn.Pending(); !ok || at != 90 {
				t.Fatalf("Pending() = %v, %v after Turn, want 90, true", at, ok)
			}
			for d := range dsts {
				sn.Deliver(d)
				sn.Engines[d].Run()
			}
			want := []string{"[1c 2b 2a 1a]", "[2d 0a 2c 0c 0d]", "[0e 1d 0b 1b]"}
			for d, r := range dsts {
				if got := fmt.Sprint(r.got); got != want[d] {
					t.Errorf("shard %d fired its inbox as %s, want %s", d, got, want[d])
				}
			}
			for d, b := range bounds {
				if wantDep := []int{5, 4, 4}[d]; b.departs != wantDep || b.arrives != 4+d%2 {
					t.Errorf("shard %d booked %d departures and %d arrivals, want %d and %d",
						d, b.departs, b.arrives, wantDep, 4+d%2)
				}
			}

			// The next window: one new handoff, appended to an outbox that
			// Deliver cleared.
			send(2, 0, 500, 400, "next")
			sn.Turn()
			for d := range dsts {
				sn.Deliver(d)
				sn.Engines[d].Run()
			}
			if got := fmt.Sprint(dsts[0].got); got != "[1c 2b 2a 1a next]" {
				t.Errorf("shard 0 after the second window fired %s, want [1c 2b 2a 1a next]", got)
			}
			if len(dsts[1].got) != 5 || len(dsts[2].got) != 4 {
				t.Errorf("shards 1 and 2 fired %v and %v again", dsts[1].got, dsts[2].got)
			}
		})
	}
}
