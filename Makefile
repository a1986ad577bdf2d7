# Tier-1 gate: `make ci` must pass before every commit. It is what the
# repository's CI runs: lint (gofmt + vet), full build, full test suite, the
# race detector over the concurrency-bearing packages (see race), the
# packet-conservation audit sweep, the golden-digest and scheduler-contract
# gate (timing wheel and reference heap, pool on and off), the allocation
# regression smoke (bench-smoke: the port path, a traced delivery and a Homa
# message allocate nothing per packet, a queue's buffer follows its backlog,
# a small run stays under its allocation ceiling, and each added flow under
# its allocation-count ceiling), the benchmark module's
# own build and tests (bench-check), and the rule that every example program
# is tested (examples).

GO ?= go

.PHONY: ci lint vet build test race audit golden shard-golden impair degrade fuzz bench bench-smoke bench-check scale scale-smoke scenario examples loc

ci: lint build test race audit golden shard-golden impair bench-smoke bench-check scale-smoke scenario examples

# gofmt gate (fails listing any unformatted file) + go vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the concurrency-bearing packages: the experiments
# fan-out (forEachPar, which RunScenarios and the §5.5 microbenchmarks
# share) and the sharded harness, the event engine and ShardGroup, the
# sharded network and packet pool, and the workload parser the fuzz target
# exercises.
race:
	$(GO) test -race ./internal/experiments ./internal/sim ./internal/netem ./internal/workload

# Packet-conservation audit sweep: every scheme in the catalogue runs under
# the internal/audit invariant checker and must produce a clean report.
audit:
	$(GO) test -run 'TestAudit' ./internal/audit ./internal/experiments

# Golden-digest and scheduler-contract gate: the pinned behavior digests must
# be byte-identical in every cell of {timing wheel, reference heap} x {pool on,
# pool off}, the Quick seed-1 tables of fig8, fig11, fig15, fig16 and table5
# must match their pinned digests (the same pins as aeolusperf's paper-quick
# workload, and the only digest of the fig15/fig16 microbenchmark runs, which
# declare no scenarios), the wheel must match the heap oracle op for op on
# the scheduler differential's seed corpus (firings, NextEventTime, Pending,
# Now and CheckInvariants after every op) and pass the tests of both its
# tiers, and a port must resolve the ties at its tx end as an
# always-scheduled tx-done would, on both schedulers, while scheduling
# tx-done only when a packet waits (the event count per packet is pinned),
# and the senders must stamp
# the wire fields the digests ride on (Homa's data bands from its cutoffs and
# grants, probes on band 0, ExpressPass on each flow's ECMP hash). The
# heap and pool-off mode exist only as these oracles; a drift in one cell is a
# scheduler or pool bug, not a behavior change — see
# internal/experiments/golden_test.go and internal/sim/fuzz_test.go.
golden:
	$(GO) test -run 'TestGoldenDigests|TestQueueTableDigests' ./internal/experiments
	$(GO) test -run 'TestSchedulerEquivalenceSeeds|TestWheel|TestNear|TestTimerResetAcrossCascadeBoundary|TestCheckInvariantsDetects(Wheel|Near)Corruption' ./internal/sim
	$(GO) test -run 'TestPortTxDoneTies|TestIdlePortEventsPerPacket' ./internal/netem
	$(GO) test -run 'TestWire' ./internal/transport/homa ./internal/transport/expresspass

# Sharded-engine gate, race-enabled: the sharded-vs-sequential digest matrix
# across shards x pool on a multi-pod fabric, the golden digests pinned under
# shard requests x pool on the single switch (which never splits), the
# per-shard + global conservation audit, the one-shard event-count pins, the
# impairment and trace x shards rules, and the ShardGroup / partitioner /
# exchange unit tests (spinning on and off, parked shards woken, more shards
# than processors, inbox delivery order). Any divergence is a
# synchronization bug — see DESIGN.md §13.
shard-golden:
	$(GO) test -race -run 'TestShardedDifferential|TestShardGoldenMatrix|TestShardedDeterminism|TestShardedAuditSweep|TestShardedEventsAccounting|TestCheckImpairShards|TestCheckTraceShards' \
		./internal/experiments
	$(GO) test -race -run 'TestShard|TestAtHandlerFrom|TestDeliverOrder' ./internal/sim ./internal/netem

# Impairment-layer gate: the timeline-parser seed corpus (the checked-in
# fuzz inputs as a plain test), the impaired-run determinism contract (rerun
# and pool off), and the short loss-sweep smoke (one scheme per transport
# family completes under 5% injected loss with a clean audit).
impair:
	$(GO) test -run 'TestImpairmentTimelineSeeds|TestImpairedGoldenDeterminism|TestLossSweepSmoke|TestImpairmentDropsExactlyOnce' \
		./internal/netem ./internal/experiments

# Degradation sweep (loss rate x scheme FCT/goodput table plus link-flap
# recovery), written as JSON for plotting.
degrade:
	mkdir -p results
	$(GO) run ./cmd/aeolusbench -exp degrade -json > results/degradation.json
	@echo "wrote results/degradation.json"

# Short fuzz pass over the CDF text parser, the scheduler differential, the
# three text grammars with a round-trip contract (impairment timelines,
# "clos:" fabric specs and scenarios) and the switches' routes on "clos:"
# fabrics against the per-host table they replaced (CI smoke; raise
# -fuzztime locally).
# -fuzzminimizetime=1s caps the minimization of each new interesting input:
# at the default 60 s budget a 30 s pass of FuzzSchedulerEquivalence spent
# most of its time minimizing at 0 execs/s (31,229 execs in all, against
# 142,298 at 1 s, which also found 205 new inputs instead of 95).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCDFParse -fuzztime=30s -fuzzminimizetime=1s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzSchedulerEquivalence -fuzztime=30s -fuzzminimizetime=1s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzImpairmentTimeline -fuzztime=30s -fuzzminimizetime=1s ./internal/netem
	$(GO) test -run=^$$ -fuzz=FuzzTopoSpecRoundTrip -fuzztime=30s -fuzzminimizetime=1s ./internal/netem
	$(GO) test -run=^$$ -fuzz=FuzzClosRoutes -fuzztime=30s -fuzzminimizetime=1s ./internal/netem
	$(GO) test -run=^$$ -fuzz=FuzzScenarioRoundTrip -fuzztime=30s -fuzzminimizetime=1s ./internal/scenario

# Full benchmark ledger: micro (event engine, queues, port path) and macro
# (per-scheme packets/sec) benchmarks, folded into BENCH_micro.json with the
# committed pre-pooling baseline preserved for comparison. Each micro row is
# five samples, recorded as their median and quartiles.
bench:
	( $(GO) test -bench=. -benchtime=20000x -count=5 -benchmem -run=^$$ ./internal/sim ./internal/netem ./internal/transport/rdbase ./internal/flatmap ; \
	  $(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./internal/experiments ) \
	| $(GO) run ./cmd/benchjson -o BENCH_micro.json

# Allocation-regression smoke for CI: the port-path allocation and packet-slab
# churn gates (committed allocs/op + ns/op ceilings), the zero-allocation
# traced host delivery, the queue-buffer gate (100k packets through a FIFO at
# a backlog of 4 and the ExpressPass credit band at its 15-credit cap leave
# 8- and 16-slot rings: a buffer follows its backlog, not its busy period),
# the fabric-build gate (BuildClos's bytes and mallocs per port at width 32
# within 1.1x of width 8: forwarding state grows with ports, not hosts),
# the event-scheduler hot-path and cold-pending-set gates (committed
# schedule/cancel ceilings, both schedulers, cache-hot and out-of-cache), the
# flow-table lookup gate, the Homa+Aeolus message whose allocations must not
# grow with its size (4 MB vs 200 KB: nothing allocates per packet), the
# small-run allocation ceilings (a 7-to-1 30 KB leafspine incast per Aeolus
# family under a committed byte budget), the per-flow allocation-count
# ceilings (the objects each flow adds to a 30 KB leafspine incast, from 8 to
# 16 senders, per Aeolus family), the scheduler's tier split (at most 3% of a
# scale cell's events placed in the far tier), one quick iteration of the
# hot-path benchmarks, and the race detector over the packet-pool tests.
bench-smoke:
	$(GO) test -bench='BenchmarkPortPath|BenchmarkPacketSlabChurn' -benchtime=100x -benchmem \
		-run='TestPortPathAllocs|TestPacketSlabChurnGate|TestTracedDeliveryAllocs|TestQueueBufferFollowsBacklog|TestClosBuildPerPort' ./internal/netem
	$(GO) test -bench=. -benchtime=1x -benchmem \
		-run='TestSchedulerHotPathGate|TestEngineScheduleColdGate' ./internal/sim
	$(GO) test -bench=BenchmarkFlowTableLookup -benchtime=100x -benchmem \
		-run=TestFlowTableLookupGate ./internal/transport/rdbase
	$(GO) test -run=TestCollectorScratchAllocs ./internal/stats
	$(GO) test -run=TestMessageAllocsFlat ./internal/transport/homa
	$(GO) test -run='TestSmallRunAllocCeiling|TestPerFlowMallocCeiling|TestFarTierShare' ./internal/experiments
	$(GO) test -race -run=TestPool ./internal/netem

# The benchmark is its own module (bench/, run by bench/run.sh), so the root
# build, vet and test targets skip it: this target builds and vets it and
# runs its tests. Those run every workload at its tiny size against the
# pinned output digests and check the metric names, so a moved digest fails
# here rather than only when aeolusperf exits 1.
bench-check:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# Scenario gate: the tests of the value codec every text grammar binds its
# keys through (internal/kv: lossless render and set back, the repeated-key
# rule) and of the scenario package (round-trip identity, the checked-in fuzz
# seed corpus as plain tests), every checked-in example under
# examples/scenarios parsed + semantically validated + digest-pinned with the
# smallest example run end to end against the golden behavior digest, the
# pinned scenario digests of every registry experiment and golden run, and
# the rule that a registry entry runs exactly the scenarios it declares, in
# one batch.
scenario:
	$(GO) test ./internal/kv ./internal/scenario
	$(GO) test -run 'TestExampleScenario|TestRegistryScenarioDigests|TestGoldenScenarioDigests|TestScenarioDrivenGolden|TestExperimentRunsItsScenarios' \
		./internal/experiments

# Full scale sweep: the open-loop {64,256,1024}-host x {0.4,0.8}-load grid,
# folded into BENCH_scale.json with the committed baseline preserved. Cells
# run serially (wall-clock and RSS are process-wide), so expect minutes.
scale:
	$(GO) run ./cmd/aeolusscale -o BENCH_scale.json

# Scale-regression smoke for CI: the smallest fabric of the grid, both load
# points, gated against the committed BENCH_scale.json baseline (events/sec
# floor, heap / scheduler-pressure / per-flow-state ceilings), the same
# fabric run sharded (TestScaleSmokeSharded matches the -run pattern), and
# the ledger gate holding the committed h1024 cells to the per-flow state
# ceiling and the stamped slab geometry.
scale-smoke:
	$(GO) test -run='TestScaleSmoke|TestScaleLedgerStateCeiling' -v ./internal/experiments

# Every example program is a tested one: each examples/*/main.go needs a
# main_test.go beside it (the existing ones pin their stdout digests).
examples:
	@status=0; for f in examples/*/main.go; do \
		if [ ! -f "$$(dirname $$f)/main_test.go" ]; then \
			echo "$$f has no main_test.go beside it"; status=1; \
		fi; \
	done; exit $$status

# Non-test Go line count, the size figure ROADMAP.md's quality aim tracks:
# every *.go file except *_test.go, outside the bench/ module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l
