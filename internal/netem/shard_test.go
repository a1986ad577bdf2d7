package netem

import (
	"testing"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

func testQdisc(kind PortKind, rate sim.Rate) Qdisc { return NewQueue(1, 0, DefaultBuffer) }

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
// blocks, the shard host/port sets partition the network, every element is
// homed on its shard's engine and pool, and exactly the ports whose peer
// lives elsewhere carry a CrossLink.
func TestShardedClosPartition(t *testing.T) {
	const shards = 4
	sn := BuildShardedClos(leafSpineSpec, shards, sim.SchedWheel, testQdisc, 1538)
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
	sn := BuildShardedClos(leafSpineSpec, 1, sim.SchedWheel, testQdisc, 1538)
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
	sn := BuildShardedClos(leafSpineSpec, 2, sim.SchedWheel, testQdisc, 1538)
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

// TestFlushDeterministicOrder loads the handoff buffers in a scrambled order
// and checks the barrier delivers them sorted by (delivery time, generation
// time, source shard) and schedules each on its destination engine.
func TestFlushDeterministicOrder(t *testing.T) {
	sn := BuildShardedClos(leafSpineSpec, 2, sim.SchedWheel, testQdisc, 1538)
	p := func() *Packet { return &Packet{} }
	sn.bar.out[1] = append(sn.bar.out[1],
		Handoff{At: 100, Gen: 40, P: p(), Src: 1, Dst: 0},
		Handoff{At: 200, Gen: 10, P: p(), Src: 1, Dst: 0},
	)
	sn.bar.out[0] = append(sn.bar.out[0],
		Handoff{At: 100, Gen: 50, P: p(), Src: 0, Dst: 1},
		Handoff{At: 100, Gen: 40, P: p(), Src: 0, Dst: 1},
	)
	var got [][3]sim.Time
	n := sn.Flush(func(h Handoff) {
		got = append(got, [3]sim.Time{h.At, h.Gen, sim.Time(h.Src)})
	})
	if n != 4 {
		t.Fatalf("Flush moved %d handoffs, want 4", n)
	}
	want := [][3]sim.Time{{100, 40, 0}, {100, 40, 1}, {100, 50, 0}, {200, 10, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handoff %d delivered as %v, want %v (full order %v)", i, got[i], want[i], got)
		}
	}
	if sn.Engines[0].Pending() != 2 || sn.Engines[1].Pending() != 2 {
		t.Fatalf("destination engines hold %d/%d events, want 2/2",
			sn.Engines[0].Pending(), sn.Engines[1].Pending())
	}
	if len(sn.bar.out[0]) != 0 || len(sn.bar.out[1]) != 0 {
		t.Fatal("Flush left handoffs in the buffers")
	}
}
