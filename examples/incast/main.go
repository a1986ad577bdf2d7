// Incast: the paper's hardware-testbed scenario (§5.1, Figs. 8/11) as a
// runnable example — a 7-to-1 incast of 60 KB messages on an 8-host 10 Gbps
// single-switch fabric, under Homa and Homa+Aeolus.
//
// Original Homa prioritizes the unscheduled first-window packets, so the
// synchronized burst overflows the shared buffer and drops scheduled
// packets, stranding messages until the 10 ms retransmission timeout.
// Aeolus drops only unscheduled packets (at the 6 KB threshold), keeps
// scheduled packets safe, and recovers first-window losses via probe +
// selective ACKs one RTT later — collapsing the tail.
//
// Each run is a scenario value, the same description aeolussim's flags
// build and its -scenario files hold, executed by the experiments harness.
//
// Run it with:
//
//	go run ./examples/incast
package main

import (
	"fmt"

	"github.com/aeolus-transport/aeolus/internal/experiments"
	"github.com/aeolus-transport/aeolus/internal/netem"
	"github.com/aeolus-transport/aeolus/internal/scenario"
	"github.com/aeolus-transport/aeolus/internal/sim"
)

// testbed declares the incast under one scheme.
func testbed(scheme string) scenario.Scenario {
	return scenario.Scenario{
		// Eight hosts on one 10 Gbps switch.
		Topo:   experiments.TopoSingleSwitch,
		Scheme: scheme,
		// Homa's overcommitment trades buffer for utilization; on this
		// shallow 100 KB testbed switch, 3 concurrently granted messages
		// (3 x BDP ≈ 54 KB of scheduled in-flight) is what the buffer
		// affords.
		Opts: map[string]string{"overcommit": "3"},
		// A deliberately tight 100 KB shared buffer makes the 7-way blind
		// burst (7 x BDP ≈ 126 KB of unscheduled packets) overflow, as the
		// paper's testbed switch does at full scale.
		Buffer: 100 << 10,
		Incast: &scenario.IncastSpec{Fanin: 7, Receiver: 0, MsgSize: 60_000,
			Seed: 42, StartAt: 10 * sim.Microsecond},
	}
}

func main() {
	fmt.Println("7-to-1 incast, 60KB messages, 10Gbps, 100KB shared switch buffer")
	fmt.Println()
	runs := []scenario.Scenario{testbed("homa"), testbed("homa+aeolus")}
	for _, r := range experiments.RunScenarios(experiments.Config{}, runs) {
		fmt.Printf("%-11s  MCT p50 %8v  max %10v  timeout-flows %d\n",
			r.Scheme, r.All.P50, r.All.Max, r.TimeoutFlows)
		fmt.Printf("             drops: tail=%d (any class)  selective=%d (unscheduled only)\n\n",
			r.Drops[netem.DropTailFull], r.Drops[netem.DropSelective])
	}
	fmt.Println("Homa's tail is bound to the 10ms RTO; Aeolus recovers in ~1 RTT.")
}
