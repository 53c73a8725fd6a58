GO ?= go

.PHONY: check build vet test bench-check test-obs bench torture e2e loc

# The full gate: everything must build, vet clean, and pass under the race
# detector, bench/ included. CI and pre-commit both run this.
check: build vet test bench-check

build:
	$(GO) build ./...

# e2e/ builds only under its tag, so vet it by name: a broken e2e test
# fails the gate without the suite running.
vet:
	$(GO) vet ./...
	$(GO) vet -tags e2e ./e2e

test:
	$(GO) test -race ./...

# bench/ is a module of its own compiled against internal/*, so build, vet
# and test above never see it; a change that breaks an identifier it pins
# (DESIGN.md §4c) fails here, not in the benchmark pipeline.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The observability layer and every package it instruments, race-checked —
# the fast loop when touching metrics/flight-recorder code.
test-obs:
	$(GO) vet ./internal/obs ./internal/cc ./internal/storage ./internal/core
	$(GO) test -race -count=1 ./internal/obs ./internal/cc ./internal/storage ./internal/core

# The experiment suite (EXPERIMENTS.md); slow.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Kill-the-process durability torture (SIGKILL + recover, 5 rounds).
torture:
	$(GO) run ./cmd/chaos -round crash -iters 5

# The binaries end to end (e2e/): oodbd, oodbsim, oodbload and chaos on
# kernel-assigned loopback ports — the debug and trace endpoints, the
# server's drain, partitions, wire tracing, replication failover, the chaos
# and crash rounds, and open-nested runs under the Def. 16 checker.
e2e:
	$(GO) test -tags e2e -count=1 ./e2e

# The line budget ROADMAP.md tracks: non-test Go in the root module, bench/
# excluded.
loc:
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
