GO ?= go

.PHONY: all build vet lint test race chaos trace-check slo-check scenario-check fleet-check fleet-trace-check bounds-check check bench tables latency-bench clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own static analysis: the determinism vet passes
# over the simulator source (tytan-vet) and the CFG-based binary
# verifier over every shipped task source (tytan-lint).
lint:
	$(GO) run ./cmd/tytan-vet
	$(GO) run ./cmd/tytan-lint examples/tasks/*.s

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the seeded fault-injection scenario across the fixed seed
# matrix with the race detector on: bit flips, IRQ storms, rogue tasks
# and a faulty attestation link against the trusted supervisor.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/benchlab/

# trace-check validates the observability exporters end to end: a short
# fault-injected sim run with -trace/-metrics/-profile on must produce a
# Chrome trace that parses, Prometheus text that scrapes, and an event
# stream identical across two runs of the same seed — under -race.
trace-check:
	$(GO) test -race -v -run 'TestTraceCheck' ./cmd/tytan-sim/

# slo-check validates the analysis layer end to end: a seeded
# fault-injected sim exported to a Chrome trace, analyzed twice through
# tytan-analyze with the checked-in SLO spec — reports must be
# byte-identical and the spec must pass — under -race.
slo-check:
	$(GO) test -race -v -run 'TestSLOCheck' ./cmd/tytan-analyze/

# scenario-check runs the secure-update robustness matrix: every named
# scenario (update under load, update under fault injection, downgrade
# attack, corrupt image, power failure at every swap phase, quarantined
# identity) across the fixed seed matrix, cells in parallel under
# -race, with per-scenario SLO verdicts; two full runs must render
# byte-identical reports.
scenario-check:
	$(GO) test -race -v -run 'TestScenarioCheck' ./internal/benchlab/

# fleet-check is the fleet attestation determinism gate: the same fleet
# config run twice — with different shard and acceptor-pool sizes racing
# underneath, under -race — must render byte-identical reports and event
# streams.
fleet-check:
	$(GO) test -race -v -run 'TestFleetCheck' ./internal/fleet/

# fleet-trace-check is the fleet telemetry zero-impact gate: the same
# fleet config run with the full telemetry stack (correlated timeline,
# metrics, flight recorders) on and off, under -race, must render
# byte-identical reports and event streams — and two telemetry-on runs
# must render byte-identical timelines and incident reports.
fleet-trace-check:
	$(GO) test -race -v -run 'TestFleetTraceCheck' ./cmd/tytan-fleet/

# bounds-check is the resource-bound determinism gate: every shipped
# task source must carry certified stack and cycle bounds under
# `tytan-lint -bounds`, and two full JSON runs over the corpus must be
# byte-identical.
bounds-check:
	$(GO) run ./cmd/tytan-lint -bounds -json /tmp/tytan-bounds-a.json examples/tasks/*.s
	$(GO) run ./cmd/tytan-lint -bounds -json /tmp/tytan-bounds-b.json examples/tasks/*.s
	cmp /tmp/tytan-bounds-a.json /tmp/tytan-bounds-b.json
	rm -f /tmp/tytan-bounds-a.json /tmp/tytan-bounds-b.json

# check is the gate CI and pre-commit should run: build, vet, lint, the
# full test suite under the race detector, the chaos scenario, and the
# observability, SLO, update-scenario, fleet, fleet-telemetry and
# resource-bound gates. Engine equivalence runs inside race (the
# internal/machine lockstep suites and the benchlab use-case, kernel and
# chaos equivalence tests); host-clock timing lives in bench/.
check: build vet lint race chaos trace-check slo-check scenario-check fleet-check fleet-trace-check bounds-check

bench:
	$(GO) test -bench=. -benchtime=10x -run=^$$ .
	$(GO) run ./cmd/tytan-bench -latency-json BENCH_latency.json

tables:
	$(GO) run ./cmd/tytan-bench

# latency-bench runs the instrumented latency scenario and writes
# BENCH_latency.json (all values in simulated cycles — deterministic).
latency-bench:
	$(GO) run ./cmd/tytan-bench -latency-json BENCH_latency.json

clean:
	$(GO) clean ./...
	rm -f BENCH_latency.json
