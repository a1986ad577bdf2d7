// Quickstart: the smallest complete Aeolus simulation.
//
// Three hosts hang off one 10 Gbps switch whose ports run Aeolus selective
// dropping. Host 0 and host 1 each send a message to host 2 over
// ExpressPass+Aeolus; the program prints each flow's completion time and
// whether it finished inside the first RTT — the paper's headline benefit
// for small flows.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/stats"
	"github.com/aeolus-transport/aeolus/internal/transport"
	"github.com/aeolus-transport/aeolus/internal/transport/expresspass"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

func main() {
	// 1. Transport options: ExpressPass with the Aeolus building block at
	//    the paper's default 6 KB selective-dropping threshold.
	opts := expresspass.DefaultOptions()
	opts.Aeolus = core.DefaultOptions()

	// 2. Build the fabric. The queue factory installs the Aeolus switch
	//    queues (shaped credit band + selective dropping) on every port.
	eng := sim.NewEngine()
	spec := netem.TopoSpec{HostsPerEdge: 3, Tiers: []netem.TierSpec{{Switches: 1}},
		HostRate: 10 * sim.Gbps, LinkDelay: 3 * sim.Microsecond}
	net := netem.BuildClos(eng, spec, expresspass.QueueFactory(opts, netem.DefaultBuffer), 0)
	fmt.Printf("fabric: 3 hosts @10Gbps, base RTT %v, BDP %d bytes\n\n",
		net.BaseRTT, net.BDPBytes())

	// 3. Attach the protocol and describe the flows.
	env := transport.NewEnv(net, netem.MaxPayload)
	proto := expresspass.New(env, opts)
	env.Done = func(f *transport.Flow, rec stats.FlowRecord) {
		in1 := ""
		if rec.FCT() <= net.BaseRTT {
			in1 = "  — finished within the first RTT (pre-credit burst only)"
		}
		fmt.Printf("flow %d: %6d bytes %d->%d  FCT %v%s\n",
			f.ID, f.Size, f.Src, f.Dst, rec.FCT(), in1)
	}

	trace := []workload.FlowSpec{
		// A small flow: one BDP covers it, so the Aeolus burst completes it
		// in half an RTT without waiting for any credit.
		{ID: 1, Src: 0, Dst: 2, Size: 12_000, Start: sim.Time(10 * sim.Microsecond)},
		// A larger flow: the burst covers the first BDP, credits pace the rest.
		{ID: 2, Src: 1, Dst: 2, Size: 400_000, Start: sim.Time(12 * sim.Microsecond)},
	}

	// 4. Run to completion.
	transport.Runner(env, proto, trace, sim.Time(sim.Second))

	fmt.Printf("\ndelivered %d payload bytes, transfer efficiency %.3f\n",
		env.Meter.DeliveredPayload, env.Meter.Efficiency())
}
