GO ?= go

# Every recipe pipes go test into benchjson; without pipefail a failing test
# process would leave the pipe's status to benchjson alone.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

# Extra flags for the test targets, e.g. GOTESTFLAGS=-short for quick CI legs.
GOTESTFLAGS ?=

.PHONY: all build vet test race check bench-json bench-check golden fuzz chaos fleet calib

all: check

# perfbench/ is its own Go module (it replaces gpm with this checkout), so
# the root build never compiles it; vet it here so an API change that breaks
# the benchmark fails the build. Offline: its only dependency is the checkout.
build:
	$(GO) build ./...
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet .

# gofmt -l lists every tracked Go file whose formatting differs; any name
# fails the target.
vet: build
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

test: vet
	$(GO) test $(GOTESTFLAGS) ./...

# The resilience sweep, hierarchical solver and experiment drivers fan out
# across goroutines; run the suite under the race detector before shipping.
# CI gates this leg to the short test set (GOTESTFLAGS=-short) to bound
# wall-clock.
race: vet
	$(GO) test -race $(GOTESTFLAGS) ./...

check: race

# Machine-readable solver benchmarks: ns/op, B/op, allocs/op and nodes/op per
# solver at 8/16/64/256 cores (plus the 1024-core hierarchical decision), and
# engine decision-loop benchmarks (ns/decision across manager + middleware
# configurations on the synthetic substrate). Sub-benchmarks are named
# <config>/cores=N so no name ends in -N, which benchjson would read as the
# GOMAXPROCS suffix.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkSolver$$|BenchmarkSolverWarm|BenchmarkSolverDelta|BenchmarkHier1024|BenchmarkDeadlineSolver' -benchmem ./internal/solver \
		| $(GO) run ./cmd/benchjson > BENCH_solver.json
	@echo wrote BENCH_solver.json
	( $(GO) test -run '^$$' -bench 'BenchmarkEngine$$' -benchmem ./internal/engine ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDecision(MaxBIPS|Greedy)$$' -benchmem . ) \
		| $(GO) run ./cmd/benchjson > BENCH_engine.json
	@echo wrote BENCH_engine.json
	$(GO) test -run '^$$' -bench 'BenchmarkEngineBare|BenchmarkEngineObserved' -benchmem ./internal/engine \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json
	@echo wrote BENCH_obs.json
	( $(GO) test -run '^$$' -bench 'BenchmarkFullsim' -benchmem ./internal/fullsim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem ./internal/experiment ) \
		| $(GO) run ./cmd/benchjson > BENCH_fullsim.json
	@echo wrote BENCH_fullsim.json
	$(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchmem ./internal/fleet \
		| $(GO) run ./cmd/benchjson > BENCH_fleet.json
	@echo wrote BENCH_fleet.json
	( $(GO) test -run '^$$' -bench 'BenchmarkHistoryPredictor' -benchmem ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCounterfactualReplay' -benchmem ./internal/calib ) \
		| $(GO) run ./cmd/benchjson > BENCH_calib.json
	@echo wrote BENCH_calib.json

# The steady-state allocation gate: re-run the warm-session benchmark rows
# (short -benchtime — allocs/op is iteration-invariant) and fail if any row
# allocates more per op than the committed BENCH_*.json baseline admits. The
# warm solver rows, hier included, are pinned at 0 allocs/op, so any new
# allocation on the session hot path fails CI here. The solver rows run at
# -cpu 1, the setting the warm hier drift baselines were recorded at.
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkSolverWarm' -benchtime 5x -cpu 1 -benchmem ./internal/solver \
		| $(GO) run ./cmd/benchjson -check BENCH_solver.json
	# Warm 1024-core hier decision latency: within 2.5× of its -cpu 1
	# baseline, and at most 7× the warm greedy decision over the same cores
	# measured in the same run (hier's own demand pass). The ratio is
	# machine-relative: the earlier decision path (a goroutine per cluster,
	# a frontier build per solve, Instance-copying BB nodes) ran at
	# 8.9–13.2×. Both gates read each row's median over five repeats, and
	# the repeats run as five processes so that hier and greedy samples
	# alternate in time: one sample that meets host noise once read 7.12×
	# where the next read 4.99×, and five repeats in one process (all hier
	# samples, then all greedy ones) still spread 5.8–8.1× over ten runs,
	# where five alternating processes spread 5.96–6.57× (2-vCPU host). The
	# greedy row is the sorted walk hier's demand pass also runs, so the
	# ratio rose when the walk replaced the heap greedy: the heap read
	# 4.4–5.5×. A failing repeat fails the leg twice over: the loop exits
	# non-zero into the pipefail shell, and -repeats 5 refuses the rows
	# that repeat left short.
	for i in 1 2 3 4 5; do \
		$(GO) test -run '^$$' -bench 'BenchmarkSolverWarm/(hier|greedy)-drift/cores=1024' -benchtime 40x -cpu 1 -benchmem ./internal/solver || exit 1; \
	done | $(GO) run ./cmd/benchjson -check BENCH_solver.json -match 'drift/cores=1024' \
			-ns-match 'hier-drift/cores=1024' -ns-slack 2.5 -repeats 5 \
			-ratio 'hier-drift/cores=1024<=7*greedy-drift/cores=1024'
	# Every engine-loop row: a steady-state explore interval allocates
	# nothing, so a row's allocs/op is its run's fixed setup, and one
	# allocation per decision (+100 allocs/op) breaks the 1.15 slack.
	$(GO) test -run '^$$' -bench 'BenchmarkEngine$$' -benchtime 3x -benchmem ./internal/engine \
		| $(GO) run ./cmd/benchjson -check BENCH_engine.json -match 'BenchmarkEngine/' -slack 1.15
	# The exact 8-core MaxBIPS decision (branch-and-bound) must cost at most
	# 1.2× the 64-core greedy decision measured in the same run, and keep its
	# baseline allocation. Enumerating all 3^8 vectors ran at 1.9–3.0× the
	# greedy decision in 11 runs, branch-and-bound at 0.5–0.9× in 15 (2-vCPU
	# host), so a revert to enumeration fails on any host.
	$(GO) test -run '^$$' -bench 'BenchmarkDecision(MaxBIPS|Greedy)$$' -benchtime 20000x -benchmem . \
		| $(GO) run ./cmd/benchjson -check BENCH_engine.json -match 'BenchmarkDecision' \
			-ratio 'BenchmarkDecisionMaxBIPS<=1.2*BenchmarkDecisionGreedy'
	$(GO) test -run '^$$' -bench 'BenchmarkHistoryPredictor/warm' -benchtime 100x -benchmem ./internal/core \
		| $(GO) run ./cmd/benchjson -check BENCH_calib.json
	# Delta-decision latency gates: the generation memo hit must stay under
	# the 1 µs ceiling (and near its baseline), and the K=1 certified delta
	# must stay ≥10× faster than the warm full solve on the same machine.
	$(GO) test -run '^$$' -bench 'BenchmarkSolverDelta' -benchtime 300x -benchmem ./internal/solver \
		| $(GO) run ./cmd/benchjson -check BENCH_solver.json -match 'SolverDelta' \
			-ns-match 'bb-gen-steady|bb-delta' -ns-slack 2.5 \
			-ns-cap 'bb-gen-steady/cores=1024=1000' \
			-ratio 'bb-delta/cores=1024<=0.1*bb-warm-full/cores=1024'
	# Exact solver at scale: a cold 64-core branch-and-bound decision must
	# stay under 10 ms (and at its baseline allocations).
	$(GO) test -run '^$$' -bench 'BenchmarkSolver$$/bb/cores=64$$' -benchtime 50x -benchmem ./internal/solver \
		| $(GO) run ./cmd/benchjson -check BENCH_solver.json -match 'BenchmarkSolver/bb/cores=64' \
			-ns-cap 'BenchmarkSolver/bb/cores=64=10000000'
	# Fleet steady state: the 0-dirty epoch (telemetry fold + skip, no solve)
	# must stay under the 6.5 µs ceiling.
	$(GO) test -run '^$$' -bench 'BenchmarkFleetEpochSteady' -benchtime 500x -benchmem ./internal/fleet \
		| $(GO) run ./cmd/benchjson -check BENCH_fleet.json -match 'FleetEpochSteady' \
			-ns-match 'FleetEpochSteady' -ns-slack 2.5 -ns-cap 'FleetEpochSteady=6500'
	@echo bench-check passed

# The refactor-safety gate: golden fingerprints pin the trace-based control
# loop AND its decision traces bit-identical (TestGoldenControlLoop,
# TestGoldenDecisionTraces, TestGoldenReplayBitIdentical), and the
# cross-substrate test asserts both substrates agree through the shared
# engine.
golden:
	$(GO) test -count=1 -run 'TestGolden|TestCounterfactualSelfIdentity' ./internal/cmpsim
	$(GO) test -count=1 -run 'TestRunPolicyGoldenBitIdentical|TestCrossSubstrate|TestGoldenCalibrationReport|TestGoldenRegretTable' ./internal/experiment
	$(GO) test -count=1 -run 'TestCounterfactualSelfIdentity' ./internal/fullsim

# Seeded deterministic chaos soak: randomized fault schedules against the
# decision supervisor's invariant monitors (conformance, finiteness, bounded
# recovery, bit-identical reruns). gpmsim exits non-zero on any violation, so
# this target is a CI gate. Short by design; `gpmsim chaos` with bigger
# -runs/-intervals (and -fullsim) is the long-form soak.
chaos: build
	$(GO) run ./cmd/gpmsim -seed 7 -runs 1 -intervals 12 chaos

# Datacenter-tier smoke: the 8-chip facility-capped serving scenario with a
# mid-run cap cut, plus the throughput/SLO-vs-cap sweep (`gpmsim fleet`).
# Deterministic for any -workers value; the fleet golden test pins the digest.
fleet: build
	$(GO) run ./cmd/gpmsim -quick -workers 4 fleet

# Fidelity smoke: the predictor calibration sweep (predicted vs actual BIPS and
# power on both substrates, last-value vs history-table prediction) and the
# counterfactual regret table (recorded run replayed through alternate policies
# and the true-telemetry oracle). Deterministic for any -workers value; the
# experiment goldens pin both fingerprints.
calib: build
	$(GO) run ./cmd/gpmsim -quick -workers 4 -intervals 6 calib
	$(GO) run ./cmd/gpmsim -quick -workers 4 -intervals 8 regret

# Short coverage-guided fuzz of the trace codec beyond the checked-in seed
# corpus (testdata/fuzz/...); the seeds themselves run as part of `make test`.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz 'FuzzRecordRoundTrip' -fuzztime $(FUZZTIME) ./internal/obs
