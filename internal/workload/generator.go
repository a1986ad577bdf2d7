package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

// FlowSpec describes one flow to inject: who, how much, when.
type FlowSpec struct {
	ID    uint64
	Src   int
	Dst   int
	Size  int64    // application bytes
	Start sim.Time // injection instant
}

// PoissonConfig drives an open-loop Poisson flow generator over randomly
// chosen sender/receiver pairs, the paper's traffic model (§5.1).
type PoissonConfig struct {
	CDF      *CDF
	Hosts    int      // number of hosts; src/dst drawn uniformly, src ≠ dst
	HostRate sim.Rate // edge link rate
	Load     float64  // target average edge load, fraction of HostRate
	Flows    int      // number of flows to generate
	Seed     uint64
	StartAt  sim.Time // first arrival is offset from this instant
}

// ArrivalRate returns the flow arrival rate (flows per second) that loads
// each host's edge link to cfg.Load on average: every flow consumes
// mean-size bytes of one sender's egress and one receiver's ingress, so
// λ = load · N · rate / (8 · meanSize).
func (cfg *PoissonConfig) ArrivalRate() float64 {
	mean := cfg.CDF.Mean()
	return cfg.Load * float64(cfg.Hosts) * float64(cfg.HostRate) / (8 * mean)
}

// Check reports why Generate cannot place cfg's arrivals on the simulation
// clock, or nil: the arrival rate must be positive and finite, the mean gap
// between arrivals at least the clock's 1 ps tick, and the expected span of
// all arrivals, Flows mean gaps, must fit in sim.Time 64 times over past
// StartAt. One exponential gap from math/rand stays under 45 times its mean,
// so no sampled arrival can overflow the clock.
func (cfg *PoissonConfig) Check() error {
	lambda := cfg.ArrivalRate()
	gap := float64(sim.Second) / lambda // mean gap between arrivals, ps
	what := fmt.Sprintf("workload: load %g on %d hosts at %v", cfg.Load, cfg.Hosts, cfg.HostRate)
	switch {
	case !(lambda > 0) || math.IsInf(lambda, 1):
		return fmt.Errorf("%s gives an arrival rate of %g flows/s; it must be positive and finite", what, lambda)
	case gap < 1:
		return fmt.Errorf("%s spaces arrivals %.3g ps apart on average, under the clock's 1 ps tick", what, gap)
	case 64*gap*float64(cfg.Flows) > float64(sim.MaxTime-cfg.StartAt):
		return fmt.Errorf("%s spreads %d arrivals over about %.3g s, more than the simulation clock holds",
			what, cfg.Flows, gap*float64(cfg.Flows)/float64(sim.Second))
	}
	return nil
}

// Generate samples the flow trace. It is deterministic in the seed. Check
// reports the configurations it cannot serve.
func (cfg *PoissonConfig) Generate() []FlowSpec {
	r := rand.New(rand.NewPCG(cfg.Seed, 0xae0105))
	lambda := cfg.ArrivalRate()
	meanGap := sim.Duration(float64(sim.Second) / lambda)
	flows := make([]FlowSpec, 0, cfg.Flows)
	t := cfg.StartAt
	for i := 0; i < cfg.Flows; i++ {
		t = t.Add(sim.Exp(r, meanGap))
		src := r.IntN(cfg.Hosts)
		dst := r.IntN(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, FlowSpec{
			ID:    uint64(i + 1),
			Src:   src,
			Dst:   dst,
			Size:  cfg.CDF.Sample(r),
			Start: t,
		})
	}
	return flows
}

// IncastConfig builds an N-to-1 synchronized incast: N senders each send one
// message of MsgSize bytes to the same receiver, the microbenchmark of
// Figs. 8, 11 and 17 and Table 5.
type IncastConfig struct {
	Fanin    int   // number of senders
	Receiver int   // receiver host ID
	Hosts    int   // total hosts to draw senders from
	MsgSize  int64 // bytes per sender
	Seed     uint64
	StartAt  sim.Time
	// Jitter, when positive, staggers sender start times uniformly in
	// [0, Jitter) to model request fan-out skew.
	Jitter sim.Duration
	// BaseID offsets flow IDs so repeated rounds stay unique.
	BaseID uint64
}

// Generate samples the incast trace: Fanin distinct senders ≠ Receiver.
func (cfg *IncastConfig) Generate() []FlowSpec {
	r := rand.New(rand.NewPCG(cfg.Seed, 0x1ca57))
	// Choose Fanin distinct senders among hosts, excluding the receiver.
	pool := make([]int, 0, cfg.Hosts-1)
	for h := 0; h < cfg.Hosts; h++ {
		if h != cfg.Receiver {
			pool = append(pool, h)
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	// When the fan-in exceeds the host count, senders cycle: a host carries
	// several concurrent messages, as in the paper's 256-to-1 study on a
	// 144-server fabric (Fig. 17).
	flows := make([]FlowSpec, 0, cfg.Fanin)
	for i := 0; i < cfg.Fanin; i++ {
		start := cfg.StartAt
		if cfg.Jitter > 0 {
			start = start.Add(sim.Duration(r.Int64N(int64(cfg.Jitter))))
		}
		flows = append(flows, FlowSpec{
			ID:    cfg.BaseID + uint64(i+1),
			Src:   pool[i%len(pool)],
			Dst:   cfg.Receiver,
			Size:  cfg.MsgSize,
			Start: start,
		})
	}
	return flows
}

// Merge combines traces and re-sorts by start time, keeping IDs unique by
// construction of the inputs.
func Merge(traces ...[]FlowSpec) []FlowSpec {
	var all []FlowSpec
	for _, t := range traces {
		all = append(all, t...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}
