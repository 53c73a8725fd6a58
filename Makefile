GO ?= go

.PHONY: check build vet test bench-check test-obs bench torture metrics-smoke trace-smoke chaos-smoke checkpoint-smoke server-smoke partition-smoke tracing-smoke repl-smoke

# The full gate: everything must build, vet clean, and pass under the race
# detector, bench/ included. CI and pre-commit both run this.
check: build vet test bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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

# End-to-end check of the -metrics-addr endpoint: boot a small run with a
# lingering endpoint, then assert /metrics serves the lock/pool/engine JSON
# and /events serves the flight recorder.
METRICS_SMOKE_PORT ?= 19321
metrics-smoke:
	$(GO) build -o /tmp/oodbsim-smoke ./cmd/oodbsim
	/tmp/oodbsim-smoke -workload banking -protocol open-nested -workers 2 -txns 10 \
		-metrics-addr 127.0.0.1:$(METRICS_SMOKE_PORT) -metrics-linger 5s >/dev/null & \
	sleep 2; \
	curl -sf http://127.0.0.1:$(METRICS_SMOKE_PORT)/metrics | grep -q '"lock"' && \
	curl -sf http://127.0.0.1:$(METRICS_SMOKE_PORT)/metrics | grep -q '"pool"' && \
	curl -sf http://127.0.0.1:$(METRICS_SMOKE_PORT)/metrics | grep -q '"engine"' && \
	curl -sf "http://127.0.0.1:$(METRICS_SMOKE_PORT)/events?n=5" >/dev/null && \
	echo "metrics-smoke: OK"; \
	status=$$?; wait; exit $$status

# Fault-injection smoke: every chaos round (lock delays, seeded random
# faults, admission overload, WAL poison + restart recovery) must uphold
# the no-loss / typed-error / no-livelock invariants.
chaos-smoke:
	$(GO) run ./cmd/chaos -seed 1 -workers 6 -txns 60
	$(GO) run ./cmd/chaos -seed 2 -workers 6 -txns 60

# Checkpoint and partition torture. First, SIGKILL rounds with an
# aggressive fuzzy-checkpoint interval, cycling crashes into the checkpoint
# write and the segment truncation (the ckpt.write / ckpt.truncate
# failpoints): every recovery must start from the newest complete
# checkpoint — or fall back to an older one / full replay when the kill tore
# the file — and replay only the surviving suffix. Then SIGKILL rounds on a
# 4-partition child, every partition's WAL verified on its own.
checkpoint-smoke:
	$(GO) run ./cmd/chaos -round crash -iters 6 -checkpoint 40ms
	$(GO) run ./cmd/chaos -round crash -iters 3 -partitions 4

# End-to-end check of the network server: boot oodbd with the banking
# schema, burst a concurrent client workload through the pooled client,
# assert zero leaked admission slots via /metrics, then SIGTERM and require
# the drain shutdown to exit cleanly (oodbd itself exits non-zero if any
# slot leaks through the drain).
SERVER_SMOKE_PORT ?= 19323
SERVER_SMOKE_METRICS_PORT ?= 19324
server-smoke:
	$(GO) build -o /tmp/oodbd-smoke ./cmd/oodbd
	$(GO) build -o /tmp/oodbload-smoke ./cmd/oodbload
	/tmp/oodbd-smoke -addr 127.0.0.1:$(SERVER_SMOKE_PORT) \
		-metrics-addr 127.0.0.1:$(SERVER_SMOKE_METRICS_PORT) \
		-install banking -max-inflight 64 >/dev/null 2>&1 & \
	pid=$$!; \
	sleep 1; \
	/tmp/oodbload-smoke -addr 127.0.0.1:$(SERVER_SMOKE_PORT) -workload banking -workers 32 -txns 25 && \
	curl -sf http://127.0.0.1:$(SERVER_SMOKE_METRICS_PORT)/metrics | grep -q '"engine.inflight": 0' && \
	curl -sf http://127.0.0.1:$(SERVER_SMOKE_METRICS_PORT)/metrics | grep -q '"server.requests"'; \
	status=$$?; \
	kill -TERM $$pid 2>/dev/null; \
	wait $$pid || status=1; \
	[ $$status -eq 0 ] && echo "server-smoke: OK"; exit $$status

# End-to-end check of the partitioned server: boot oodbd with 4 engine
# partitions, burst a partition-aware client workload through the pooled
# client, assert via /metrics that no partition leaked an admission slot
# (every p<i>.engine.inflight must read 0), then SIGTERM and require the
# drain shutdown to exit cleanly (oodbd itself exits non-zero if any slot
# leaks through the drain).
PARTITION_SMOKE_PORT ?= 19325
PARTITION_SMOKE_METRICS_PORT ?= 19326
partition-smoke:
	$(GO) build -o /tmp/oodbd-psmoke ./cmd/oodbd
	$(GO) build -o /tmp/oodbload-psmoke ./cmd/oodbload
	/tmp/oodbd-psmoke -addr 127.0.0.1:$(PARTITION_SMOKE_PORT) \
		-metrics-addr 127.0.0.1:$(PARTITION_SMOKE_METRICS_PORT) \
		-partitions 4 -install banking -accounts 32 -max-inflight 64 >/dev/null 2>&1 & \
	pid=$$!; \
	sleep 1; \
	/tmp/oodbload-psmoke -addr 127.0.0.1:$(PARTITION_SMOKE_PORT) -workload banking \
		-partitions 4 -accounts 32 -workers 32 -txns 25 && \
	metrics=$$(curl -sf http://127.0.0.1:$(PARTITION_SMOKE_METRICS_PORT)/metrics) && \
	for p in 0 1 2 3; do echo "$$metrics" | grep -q "\"p$$p.engine.inflight\": 0" || exit 1; done && \
	echo "$$metrics" | grep -q '"cluster.partitions": 4'; \
	status=$$?; \
	kill -TERM $$pid 2>/dev/null; \
	wait $$pid || status=1; \
	[ $$status -eq 0 ] && echo "partition-smoke: OK"; exit $$status

# End-to-end check of WAL replication: boot a 3-node oodbd cluster, find
# the leader via /healthz (followers answer 503 "replica"), burst a banking
# workload at it, assert follower healthz carries replication state, then
# SIGKILL the leader and require a new leader at a HIGHER term to take over
# writes (a second burst must commit against it). After the oodbd-level
# check, the chaos leader-kill round does the rigorous version — SIGKILL
# mid-burst over many iterations, machine-checking on every failover that
# each quorum-acked commit survives on the new leader — and the
# repl-partition round isolates a live leader instead of killing it.
REPL_SMOKE_DIR ?= /tmp/oodb-repl-smoke
repl-smoke:
	$(GO) build -o /tmp/oodbd-rsmoke ./cmd/oodbd
	$(GO) build -o /tmp/oodbload-rsmoke ./cmd/oodbload
	rm -rf $(REPL_SMOKE_DIR); \
	pids=""; \
	for i in 0 1 2; do \
		case $$i in \
			0) peers="n1=127.0.0.1:19342,n2=127.0.0.1:19343";; \
			1) peers="n0=127.0.0.1:19341,n2=127.0.0.1:19343";; \
			2) peers="n0=127.0.0.1:19341,n1=127.0.0.1:19342";; \
		esac; \
		/tmp/oodbd-rsmoke -addr 127.0.0.1:1933$$((i+1)) \
			-metrics-addr 127.0.0.1:1935$$((i+1)) \
			-repl-node n$$i -repl-addr 127.0.0.1:1934$$((i+1)) \
			-repl-peers "$$peers" \
			-durability group-commit -waldir $(REPL_SMOKE_DIR)/n$$i \
			-install banking >/dev/null 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	status=1; leader=""; \
	for t in $$(seq 1 60); do \
		for i in 1 2 3; do \
			if curl -s http://127.0.0.1:1935$$i/healthz | grep -q '"role": "leader"'; then leader=$$i; break; fi; \
		done; \
		[ -n "$$leader" ] && break; sleep 0.25; \
	done; \
	if [ -n "$$leader" ]; then \
		term=$$(curl -s http://127.0.0.1:1935$$leader/healthz | sed -n 's/.*"term": \([0-9]*\).*/\1/p' | head -1); \
		follower=$$(( leader % 3 + 1 )); \
		/tmp/oodbload-rsmoke -addr 127.0.0.1:1933$$leader -workload banking -workers 8 -txns 20 && \
		curl -s http://127.0.0.1:1935$$follower/healthz | grep -q '"status": "replica"' && \
		curl -s http://127.0.0.1:1935$$follower/healthz | grep -q '"role": "follower"' && \
		status=0; \
		if [ $$status -eq 0 ]; then \
			lpid=$$(echo $$pids | awk -v n=$$leader '{print $$n}'); \
			kill -9 $$lpid; status=1; newleader=""; \
			for t in $$(seq 1 60); do \
				for i in 1 2 3; do \
					[ $$i -eq $$leader ] && continue; \
					if curl -s http://127.0.0.1:1935$$i/healthz | grep -q '"role": "leader"'; then newleader=$$i; break; fi; \
				done; \
				[ -n "$$newleader" ] && break; sleep 0.25; \
			done; \
			if [ -n "$$newleader" ]; then \
				newterm=$$(curl -s http://127.0.0.1:1935$$newleader/healthz | sed -n 's/.*"term": \([0-9]*\).*/\1/p' | head -1); \
				[ "$$newterm" -gt "$$term" ] && \
				/tmp/oodbload-rsmoke -addr 127.0.0.1:1933$$newleader -workload banking -workers 8 -txns 20 && \
				status=0 || status=1; \
			fi; \
		fi; \
	fi; \
	kill -9 $$pids 2>/dev/null; wait 2>/dev/null; \
	rm -rf $(REPL_SMOKE_DIR); \
	[ $$status -eq 0 ] && echo "repl-smoke: oodbd failover OK" || exit $$status
	$(GO) run ./cmd/chaos -seed 1 -workers 6 -txns 60 -round leader-kill -iters 20
	$(GO) run ./cmd/chaos -seed 1 -workers 6 -txns 60 -round repl-partition
	@echo "repl-smoke: OK"

# End-to-end check of the span-tracing endpoint: run a workload with a
# lingering endpoint, then assert /trace/slowest returns a non-empty,
# well-formed trace and an aborted transaction (if any) has provenance.
TRACE_SMOKE_PORT ?= 19322
trace-smoke:
	$(GO) build -o /tmp/oodbsim-smoke ./cmd/oodbsim
	/tmp/oodbsim-smoke -workload lockstress -workers 16 -txns 20 -conflict 100 \
		-hold 1ms -metrics-addr 127.0.0.1:$(TRACE_SMOKE_PORT) -metrics-linger 5s >/dev/null & \
	sleep 2; \
	curl -sf "http://127.0.0.1:$(TRACE_SMOKE_PORT)/trace/slowest?n=3" | grep -q '"txn"' && \
	curl -sf "http://127.0.0.1:$(TRACE_SMOKE_PORT)/trace" | grep -q '"txns"' && \
	echo "trace-smoke: OK"; \
	status=$$?; wait; exit $$status

# End-to-end check of distributed tracing over the wire: boot a 2-partition
# oodbd, run a traced client workload, pick one client-stamped trace id off
# oodbload's output, and assert the server's cluster /trace?trace=<id> view
# returns that id on a KSession span. Then check the Prometheus exposition
# carries per-partition labels, and that SIGTERM flips /healthz to
# "draining" while the metrics endpoint lingers.
TRACING_SMOKE_PORT ?= 19327
TRACING_SMOKE_METRICS_PORT ?= 19328
tracing-smoke:
	$(GO) build -o /tmp/oodbd-tsmoke ./cmd/oodbd
	$(GO) build -o /tmp/oodbload-tsmoke ./cmd/oodbload
	/tmp/oodbd-tsmoke -addr 127.0.0.1:$(TRACING_SMOKE_PORT) \
		-metrics-addr 127.0.0.1:$(TRACING_SMOKE_METRICS_PORT) \
		-partitions 2 -install banking -accounts 32 -max-inflight 64 \
		-slow-query 1ms -metrics-linger 5s >/dev/null 2>&1 & \
	pid=$$!; \
	sleep 1; \
	out=$$(/tmp/oodbload-tsmoke -addr 127.0.0.1:$(TRACING_SMOKE_PORT) -workload banking \
		-partitions 2 -accounts 32 -workers 4 -txns 5 -trace \
		-trace-url http://127.0.0.1:$(TRACING_SMOKE_METRICS_PORT)) && \
	id=$$(echo "$$out" | sed -n 's/^oodbload: trace=\([0-9a-f]*\) .*/\1/p' | head -1) && \
	[ -n "$$id" ] && \
	trace=$$(curl -sf "http://127.0.0.1:$(TRACING_SMOKE_METRICS_PORT)/trace?trace=$$id") && \
	echo "$$trace" | grep -q "\"remote\": \"$$id\"" && \
	echo "$$trace" | grep -q '"session"' && \
	curl -sf http://127.0.0.1:$(TRACING_SMOKE_METRICS_PORT)/metrics/prom | grep -q '# TYPE' && \
	curl -sf http://127.0.0.1:$(TRACING_SMOKE_METRICS_PORT)/metrics/prom | grep -q 'partition="p1"' && \
	curl -sf http://127.0.0.1:$(TRACING_SMOKE_METRICS_PORT)/healthz | grep -q '"status": "ready"'; \
	status=$$?; \
	kill -TERM $$pid 2>/dev/null; \
	sleep 1; \
	if [ $$status -eq 0 ]; then \
		curl -s http://127.0.0.1:$(TRACING_SMOKE_METRICS_PORT)/healthz | grep -q '"status": "draining"' || status=1; \
	fi; \
	wait $$pid || status=1; \
	[ $$status -eq 0 ] && echo "tracing-smoke: OK"; exit $$status
