package experiments

import (
	"github.com/aeolus-transport/aeolus/internal/sim"
	"github.com/aeolus-transport/aeolus/internal/workload"
)

// fig2 reproduces Figure 2: the fraction of flows (a) and bytes (b) that
// could have been finished within the first RTT (pre-credit phase) under
// different link speeds, for the four production workloads.
//
// The methodology follows §2.2 exactly: a flow "finishes in the first RTT"
// if its size is at most one bandwidth-delay product; the byte fraction is
// B/A with A the workload's mean flow size and B the bytes one RTT carries
// (capped at 1). The RTT is held at the paper's 100G-fabric base RTT so the
// BDP scales linearly with link speed.
func fig2(Config) []Table {
	speeds := []sim.Rate{1 * sim.Gbps, 10 * sim.Gbps, 25 * sim.Gbps, 40 * sim.Gbps, 100 * sim.Gbps}
	const rtt = 20 * sim.Microsecond // representative intra-DC base RTT

	flows := Table{
		ID: "fig2a", Title: "Fraction of flows that could finish within the first RTT",
		Columns: []string{"link", "WebServer", "CacheFollower", "WebSearch", "DataMining"},
	}
	bytes := Table{
		ID: "fig2b", Title: "Fraction of bytes that could finish within the first RTT",
		Columns: []string{"link", "WebServer", "CacheFollower", "WebSearch", "DataMining"},
	}
	order := []*workload.CDF{workload.WebServer, workload.CacheFollower, workload.WebSearch, workload.DataMining}
	for _, speed := range speeds {
		bdp := float64(sim.BytesIn(rtt, speed))
		frow := []string{speed.String()}
		brow := []string{speed.String()}
		for _, wl := range order {
			frow = append(frow, f3(wl.Fraction(bdp)))
			bf := bdp / wl.Mean()
			if bf > 1 {
				bf = 1
			}
			brow = append(brow, f3(bf))
		}
		flows.Add(frow...)
		bytes.Add(brow...)
	}
	return []Table{flows, bytes}
}
