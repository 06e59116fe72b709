# Developer entry points. The CI gate is `make check`.

GO ?= go

.PHONY: build test vet lint lint-fast deps race check sim sim-long fuzz-smoke soak soak-reconfig soak-leader smoke-udp bench bench-smoke bench-baseline bench-compare bench-udp clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repository's domain analyzers (docs/STATIC_ANALYSIS.md):
# once under the go tool as a vettool (per-package findings, cached like
# vet), and once standalone for the whole-module checks a single build
# unit cannot see (metric/doc sync, module-wide duplicate registration).
lint:
	$(GO) build -o bin/gwlint ./cmd/gwlint
	$(GO) vet -vettool=$(CURDIR)/bin/gwlint ./...
	./bin/gwlint ./...

# lint-fast is the inner-loop variant: vettool mode only, so the go
# tool's per-package caching makes a clean re-run near-instant. It skips
# the standalone module-mode pass (metric/doc sync, duplicate
# registration, lock-order stitching across packages) — run `make lint`
# before pushing.
lint-fast:
	$(GO) build -o bin/gwlint ./cmd/gwlint
	$(GO) vet -vettool=$(CURDIR)/bin/gwlint ./...

# deps fails if the production daemon links experiment or simulation
# code: fault injection, the deterministic simulator or the gwlint
# analyzers. The daemon's import graph should hold only the datapath.
DAEMON_FORBIDDEN_DEPS = eternalgw/internal/faultinject eternalgw/internal/sim eternalgw/internal/analysis
deps:
	@deps=$$($(GO) list -deps ./cmd/ftdomaind) || exit 1; \
	bad=0; for p in $(DAEMON_FORBIDDEN_DEPS); do \
		if echo "$$deps" | grep -qE "^$$p(/|$$)"; then echo "cmd/ftdomaind links $$p"; bad=1; fi; \
	done; exit $$bad

# race runs the whole test suite under the race detector. (It was a
# recipe-less phony target for a while, which made `make check` pass
# without running any tests.)
race:
	$(GO) test -race -timeout 15m ./...

# check is the full verification gate: static analysis plus the whole
# test suite under the race detector, the deterministic simulation
# sweep, short decoder fuzzing, the reconfiguration and leader-crash
# soaks at a higher repetition count than one `go test` pass gives
# them, the multi-process UDP deployment smoke, and a one-iteration
# benchmark smoke so a change that breaks benchmark setup (but not the
# tests) cannot land silently, and the daemon dependency check.
check: vet lint deps race sim fuzz-smoke soak-reconfig soak-leader smoke-udp bench-smoke

# sim sweeps the deterministic simulation harness (internal/sim,
# docs/SIMULATION.md) over a bounded seed budget across every schedule
# class and workload, then proves the invariant checkers still have
# teeth: with a known-critical guard disabled (replica dedup, the
# membership-sync snapshot) a violating seed must turn up within the
# same budget. Failing seeds replay exactly: simrun -seed N -workload W
# -schedule S.
SIM_SEEDS ?= 200
SIM_TEETH_SEEDS ?= 30
sim:
	$(GO) run ./cmd/simrun -seeds $(SIM_SEEDS)
	$(GO) run ./cmd/simrun -seeds $(SIM_TEETH_SEEDS) -mutate disable-dedup
	$(GO) run ./cmd/simrun -seeds $(SIM_TEETH_SEEDS) -mutate disable-membership-sync

# sim-long is the nightly-scale budget (override SIM_LONG_SEEDS).
SIM_LONG_SEEDS ?= 2000
sim-long:
	$(GO) run ./cmd/simrun -seeds $(SIM_LONG_SEEDS) -metrics

# fuzz-smoke runs the GIOP decoder fuzz targets briefly — enough to
# catch a framing/decoder regression on the corpus frontier without
# turning `make check` into a fuzzing campaign. Targets run one at a
# time (the go tool rejects -fuzz matching multiple targets in one
# invocation). The other packages' fuzz targets (udpnet, totem,
# replication, ior) stay ad hoc: their seed corpora run as plain tests
# under `race` already.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/giop/ -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/giop/ -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/giop/ -fuzz FuzzDecodeReply -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/giop/ -fuzz FuzzReassembler -fuzztime $(FUZZTIME) -run xxx

# soak slams one admission-controlled gateway at 4x its configured
# in-flight window under the race detector while fault injection slows
# the domain (overload_test.go): the overload-protection acceptance gate.
SOAK_COUNT ?= 1
soak:
	$(GO) test -race -run TestGatewayOverloadSoak -count $(SOAK_COUNT) -timeout 10m -v .

# soak-reconfig rolling-upgrades a degree-3 active group and churns the
# gateway set while thin clients run at full load under the race
# detector (reconfig_soak_test.go): the online-reconfiguration
# acceptance gate — exactly-once, one total order, checkpointed
# catch-up, and IOR-driven gateway failover.
SOAK_RECONFIG_COUNT ?= 3
soak-reconfig:
	$(GO) test -race -run TestReconfigRollingUpgradeSoak -count $(SOAK_RECONFIG_COUNT) -timeout 10m -v .

# soak-leader crashes and restarts the totem sequencer while thin
# clients run at full load under the race detector
# (leader_soak_test.go): the ordering-fast-path acceptance gate —
# exactly-once across demotion to ring rotation and agreed
# re-promotion.
SOAK_LEADER_COUNT ?= 3
soak-leader:
	$(GO) test -race -run TestLeaderCrashSoak -count $(SOAK_LEADER_COUNT) -timeout 10m -v .

# smoke-udp launches a three-member totem ring as three separate OS
# processes over real localhost UDP sockets (ftdomaind -node), drives a
# short multi-client echo soak through a gateway, and audits that every
# append executed exactly once (scripts/udpsmoke.sh). Part of `make
# check`: the real-network deployment path must keep standing up.
smoke-udp:
	scripts/udpsmoke.sh

# bench runs the datapath throughput suite (round trips, multi-client
# load, replication degree, multi-group, admission on/off) with the same
# methodology as the recorded BENCH_*.json trajectory files, then prints
# a JSON summary in the BENCH_baseline.json schema for side-by-side
# comparison. Override BENCH_COUNT for more repetitions.
BENCH_COUNT ?= 3
bench:
	$(GO) test -run xxx -bench 'BenchmarkE5GatewayLoops$$|BenchmarkGatewayRoundTrip|BenchmarkGatewayMultiClient|BenchmarkGatewayReplicationDegree|BenchmarkGatewayMultiGroup|BenchmarkGatewayAdmission' -benchtime 2s -count $(BENCH_COUNT) . | tee /tmp/bench_run.txt
	@awk -f scripts/benchjson.awk /tmp/bench_run.txt

# bench-smoke runs every benchmark in the module for exactly one
# iteration: it costs seconds and proves benchmark setup still compiles
# and stands up (domain construction, fast-path promotion, deploys) —
# regressions there otherwise surface only when someone next runs
# `make bench` by hand.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# bench-udp records the real-network UDP datapath in the BENCH_udp.json
# schema: the in-process transport-level multi-client suite
# (BenchmarkUDPNetMultiClient) and the gateway suite over real sockets
# (BenchmarkGatewayMultiClientUDP), plus the multi-process sweep
# (scripts/benchudp.sh: one ftdomaind -node OS process per ring member,
# ring and leader ordering at r=1..3, exactly-once audited). The
# committed BENCH_udp.json predates the retirement of the per-datagram
# ablation and still holds its batched vs per-datagram rows; rerunning
# this target overwrites that record.
BENCH_UDP_ROUNDS ?= 3
BENCH_UDP_MP_ROUNDS ?= 2
bench-udp:
	: >/tmp/bench_udp.txt
	i=1; while [ $$i -le $(BENCH_UDP_ROUNDS) ]; do \
		echo "== bench-udp round $$i/$(BENCH_UDP_ROUNDS) ==" >&2; \
		$(GO) test -run xxx -bench 'BenchmarkUDPNetMultiClient|BenchmarkGatewayMultiClientUDP' -benchtime 2s -count 1 . | tee -a /tmp/bench_udp.txt || exit 1; \
		i=$$((i + 1)); \
	done
	scripts/benchudp.sh $(BENCH_UDP_MP_ROUNDS) 2s 8 | tee -a /tmp/bench_udp.txt
	awk -f scripts/benchjson.awk -v cmd='make bench-udp' /tmp/bench_udp.txt | tee BENCH_udp.json

# bench-baseline reproduces the original gateway round-trip numbers
# recorded in BENCH_baseline.json (baseline vs instrumented datapath).
bench-baseline:
	$(GO) test -run xxx -bench 'BenchmarkE5GatewayLoops$$|BenchmarkE5GatewayLoopsInstrumented' -benchtime 2s -count $(BENCH_COUNT) .

# bench-compare runs the throughput suite interleaved against a named
# ref (HEAD's bench_throughput_test.go overlaid onto the ref's tree, so
# both sides run identical benchmarks) and prints a before/after table.
# This is the A/B methodology behind the BENCH_pr*.json files.
#   make bench-compare BENCH_REF=v0-tag BENCH_COUNT=3
BENCH_REF ?= HEAD~1
BENCH_REGEX ?= BenchmarkGatewayRoundTrip|BenchmarkGatewayMultiClient|BenchmarkGatewayReplicationDegree|BenchmarkGatewayMultiGroup
bench-compare:
	scripts/benchcompare.sh '$(BENCH_REF)' '$(BENCH_REGEX)' $(BENCH_COUNT) 2s

clean:
	$(GO) clean ./...
