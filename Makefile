GO ?= go

.PHONY: all build vet lint test race check bench tables latency-bench clean

all: build

build:
	$(GO) build ./...

# vet also covers the nested bench/ module, which the root ./... does
# not compile.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

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

# check is the gate CI and pre-commit should run: build, vet, lint and
# the full test suite under the race detector. The suite carries every
# byte-identity contract as a row of internal/contract — chaos and
# scenario determinism, engine equivalence, observability and fleet
# telemetry zero impact, fleet shard independence, the tytan-sim and
# tytan-analyze exports and the resource bounds — each pinned to a
# SHA-256 line in its package's testdata/contract.sum. Run one gate with
# e.g. `go test -race -run TestFleetCheck ./internal/fleet`. Host-clock
# timing lives in bench/.
check: build vet lint race

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
