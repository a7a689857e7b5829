GO ?= go

.PHONY: all build vet lint test race examples check fuzz bench tables latency-bench clean

all: build

build:
	$(GO) build ./...

# vet also covers the nested bench/ module, which the root ./... does
# not compile.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# lint fails on any Go file gofmt would change, then runs the repo's own
# static analysis: the determinism vet passes over the simulator source
# and the commands and examples whose exports are pinned (tytan-vet),
# and the CFG-based binary verifier over every shipped task source
# (tytan-lint).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/tytan-vet internal cmd examples
	$(GO) run ./cmd/tytan-lint examples/tasks/*.s

test:
	$(GO) test ./...

# race runs the suite under the race detector, then runs the memPipe
# tests and the silent and hostile plane peers ten more times: they
# move, extend and clear read deadlines and Close conns while Reads wait
# on the per-direction read timer, whose races show only now and then.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestMemPipe|TestPlaneSilentPeers|TestPlaneHostilePeers' ./internal/fleet

# examples runs every program under examples/ (directories without Go
# files, such as examples/tasks, hold task sources and are skipped); a
# non-zero exit fails the target. The fleet example uses loopback TCP.
examples:
	@for d in examples/*/; do \
		[ -n "$$(ls $$d*.go 2>/dev/null)" ] || continue; \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || { echo "$$d exited non-zero"; exit 1; }; \
	done

# check is the gate CI and pre-commit should run: build, vet, lint, the
# full test suite under the race detector and every example program.
# The suite carries every byte-identity contract as a row of
# internal/contract — chaos and scenario determinism, engine
# equivalence, observability and fleet telemetry zero impact, fleet
# shard independence, the fleet metrics exposition at every pool size
# (fleet-metrics), the tytan-sim and tytan-analyze exports and the
# resource bounds — each pinned to a SHA-256 line in its package's
# testdata/contract.sum. The suite also holds the supervisor to running
# on events only: never while its tasks are healthy
# (TestSupervisorIdleNeverRuns) and binding each restart before the new
# task runs (TestSupervisorAdoptsInstantCrash). The race leg also holds
# the fleet telemetry run to its bytes-per-session budget
# (TestTelemetryAllocBudget) and stresses memPipe's read timer with ten
# repeated runs of its deadline tests. Run one gate with e.g.
# `go test -race -run TestFleetCheck ./internal/fleet`. Host-clock
# timing lives in bench/.
check: build vet lint race examples

# fuzz runs each of the repo's eight fuzzers for 30 s in turn. It is a
# manual target, not part of check. A crasher is written to the
# fuzzer's testdata/fuzz/ directory, where the plain test suite replays
# it; fix the code, then check the input in as a regression test.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime 30s ./internal/sverify
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 30s ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalChallenge$$' -fuzztime 30s ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalHello$$' -fuzztime 30s ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 30s ./internal/faultinject
	$(GO) test -run '^$$' -fuzz '^FuzzMemConn$$' -fuzztime 30s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzReadChromeTrace$$' -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSHA1$$' -fuzztime 30s ./internal/sha1

# bench runs the root benchmarks and every in-package benchmark under
# internal/ (telf, sverify, trusted, fleet, ...), ten iterations each
# with allocation counts. It reads the host clock, so it stays out of
# check.
bench: latency-bench
	$(GO) test -bench=. -benchtime=10x -run=^$$ .
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 10x ./internal/...

tables:
	$(GO) run ./cmd/tytan-bench

# latency-bench runs the instrumented latency scenario and writes
# BENCH_latency.json (all values in simulated cycles — deterministic).
# The file is tracked; the latency contract row in internal/benchlab
# fails when it is stale.
latency-bench:
	$(GO) run ./cmd/tytan-bench -latency-json BENCH_latency.json

clean:
	$(GO) clean ./...
