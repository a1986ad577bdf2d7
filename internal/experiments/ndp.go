package experiments

import "github.com/aeolus-transport/aeolus/internal/workload"

// fig14 reproduces Figure 14: FCT of 0-100KB flows under NDP with cutting
// payload and NDP+Aeolus (selective dropping, no switch modification)
// across the four workloads, on the two-tier 100G fabric at 40% core load.
// The paper's claim: the two CDFs nearly coincide.
var fig14 = fctGrid{id: "fig14",
	title:   "NDP ± Aeolus, 0-100KB flows (leaf-spine, 40% core)",
	wls:     workload.All,
	schemes: []string{"ndp", "ndp+aeolus"}, topo: TopoLeafSpine, load: 0.4}
