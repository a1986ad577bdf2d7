// Package aeolus_test hosts the benchmark harness: one testing.B
// sub-benchmark per registry experiment, each regenerating that table or
// figure of the Aeolus paper's evaluation end-to-end on the packet-level
// simulator and logging the regenerated tables.
//
// Benchmarks are macro-scale (whole simulations); run them once each:
//
//	go test -bench=Registry -benchtime=1x -benchmem
//	go test -bench='Registry/table1$' -benchtime=1x
//
// The AEOLUS_BUDGET environment variable (MiB of offered traffic per
// simulation run, default 24) scales fidelity; AEOLUS_FULL=1 disables the
// quick-sweep trimming for a complete reproduction.
package aeolus_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/experiments"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Budget = 24 << 20
	cfg.Quick = true
	if v := os.Getenv("AEOLUS_BUDGET"); v != "" {
		if mib, err := strconv.ParseInt(v, 10, 64); err == nil && mib > 0 {
			cfg.Budget = mib << 20
		}
	}
	if os.Getenv("AEOLUS_FULL") == "1" {
		cfg.Quick = false
	}
	return cfg
}

// BenchmarkRegistry regenerates every registry experiment b.N times, logging
// its tables once. scale is skipped: its sweep times its own cells and owns
// the process while doing so (cmd/aeolusscale runs it).
func BenchmarkRegistry(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			if e.ID == "scale" {
				b.Skip("the scale sweep times its own cells and owns the process; run cmd/aeolusscale")
			}
			cfg := benchConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables := e.Fn(cfg)
				if i == 0 {
					var sb strings.Builder
					for _, t := range tables {
						t.Fprint(&sb)
						sb.WriteString("\n")
					}
					b.Log("\n" + sb.String())
				}
			}
		})
	}
}
