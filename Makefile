# Tier-1 verification is `make test`; `make check` is the CI gate: gofmt,
# vet, the benchmark module's own tests, the race detector over the
# short-mode subset (which includes the engine's determinism
# regressions) plus one full race pass over the quick packages, the
# protocol conformance matrix, a one-iteration smoke pass over every
# benchmark target, a telemetry smoke run with every probe on, a
# deterministic placement-search smoke, and an end-to-end nucad/nucaload
# serving smoke that requires cache hits.

GO ?= go

.PHONY: build test benchmark-test check fmt vet race racelong conformance benchsmoke smoke cmp-smoke pareto-smoke opt-smoke serve-smoke verify clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# benchmark/ is its own module (BENCHMARK.json's harness), so the root
# `go test ./...` does not reach it.
benchmark-test:
	cd benchmark && $(GO) test ./...

# Fail when any file is not gofmt-clean, printing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Short-mode subset under the race detector: exercises the parallel
# experiment engine, the CMP sweep, and every unit test, while skipping
# the multi-minute full figure sweeps.
race:
	$(GO) test -race -short ./...

# Full (non-short) race pass over the packages whose tests stay quick
# un-shortened — everything shared across the parallel engine's workers
# (topology builders, routing verifier, policy and router registries)
# and every piece of cross-goroutine state (the CMP fabric's ports,
# nucad's scheduler, cache, and coalescing map) — plus the engine
# (shared prepared artifacts, per-worker arenas), CMP and canonical-hash
# tests of internal/core, whose full figure sweeps are too long for the
# detector.
RACELONG_PKGS = ./internal/topology/ ./internal/routing/ ./internal/cache/ \
	./internal/router/ ./internal/network/ ./internal/place/ \
	./internal/cmp/ ./internal/cpu/ ./internal/serve/
racelong:
	$(GO) test -race $(RACELONG_PKGS)
	$(GO) test -race -run 'TestEngine|TestCMP|TestCanonicalKey' ./internal/core/

# Protocol conformance: the full micro-scenario matrix (every registered
# policy × mode × hit position × occupancy × set fullness) against the
# golden model with the runtime protocol invariants enforced, plus the
# pre-refactor byte-identity goldens.
conformance:
	$(GO) test -run 'TestConformance|TestCatalogueGoldens' -v -count=1 ./internal/cache/

# Compile and run every benchmark once (no measurement) so bench files
# can never rot silently.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Tiny end-to-end run with every telemetry probe on: trace, heatmap,
# time series, at j=2 — exercises the full probe plumbing through the
# CLI so flag wiring can never rot silently.
smoke:
	$(GO) run ./cmd/nucasim -design A -n 500 -j 2 \
		-heatmap -sample 100 -trace /tmp/nucasim-smoke.jsonl >/dev/null
	@rm -f /tmp/nucasim-smoke.jsonl
	@echo "telemetry smoke: ok"

# Full-system CMP smoke through the real CLI: a 4-core directory-policy
# run on the two-chiplet hierarchy (design H2), timing stripped, diffed
# against the committed golden — so the whole chain (flags, hierarchical
# topology build, bridge-ring routing, fabric injection, directory
# attribution, per-core reporting) is pinned end to end. A tiny
# paperbench -exp cmp exercises the sharing-contention sweep.
cmp-smoke:
	$(GO) build -o /tmp/nucasim-cmp ./cmd/nucasim
	@/tmp/nucasim-cmp -design H2 -policy directory -cores 4 -n 500 \
		| sed 's/ \[[0-9.]*s\]//' > /tmp/nucasim-cmp.txt
	@diff cmd/nucasim/testdata/cmp_smoke.golden /tmp/nucasim-cmp.txt || \
		{ echo "cmp smoke: output drifted from the committed golden"; exit 1; }
	$(GO) run ./cmd/paperbench -exp cmp -n 300 >/dev/null
	@rm -f /tmp/nucasim-cmp /tmp/nucasim-cmp.txt
	@echo "cmp smoke: ok"

# Tiny router-engine Pareto sweep (every registered engine over designs
# A/D/F/R under both schemes) so the area/latency/energy frontier
# plumbing — registry, Supports gating, area scaling, dominance check —
# can never rot silently.
pareto-smoke:
	$(GO) run ./cmd/paperbench -exp pareto -n 400 >/dev/null
	@echo "pareto smoke: ok"

# Tiny-budget placement search, twice with the same seed: both runs must
# land on the same best candidate (the final line carries its canonical
# encoding and hash), pinning the optimizer's end-to-end determinism —
# annealing schedule, safety gating, area gating, batch scoring — through
# the real CLI.
opt-smoke:
	$(GO) build -o /tmp/nucaopt-smoke ./cmd/nucaopt
	@/tmp/nucaopt-smoke -budget 6 -wave 4 -screen 60 -confirm 150 -q \
		| sed 's/ (wall [0-9.]*s)//' > /tmp/nucaopt-smoke-1.txt
	@/tmp/nucaopt-smoke -budget 6 -wave 4 -screen 60 -confirm 150 -q \
		| sed 's/ (wall [0-9.]*s)//' > /tmp/nucaopt-smoke-2.txt
	@diff /tmp/nucaopt-smoke-1.txt /tmp/nucaopt-smoke-2.txt || \
		{ echo "opt smoke: same seed produced different searches"; exit 1; }
	@grep -q '^best: ' /tmp/nucaopt-smoke-1.txt || \
		{ echo "opt smoke: no best-candidate line"; cat /tmp/nucaopt-smoke-1.txt; exit 1; }
	@grep '^best: ' /tmp/nucaopt-smoke-1.txt
	@rm -f /tmp/nucaopt-smoke /tmp/nucaopt-smoke-1.txt /tmp/nucaopt-smoke-2.txt
	@echo "opt smoke: ok"

# End-to-end serving smoke: build the daemon and the load driver, boot
# the daemon on an ephemeral port, fire a short mixed load at it, and
# require at least one content-addressed cache hit. Exercises the whole
# stack — flags, listener, scheduler, cache, graceful drain — so the
# service wiring can never rot silently.
serve-smoke:
	@rm -f /tmp/nucad-smoke-addr
	$(GO) build -o /tmp/nucad-smoke ./cmd/nucad
	$(GO) build -o /tmp/nucaload-smoke ./cmd/nucaload
	@/tmp/nucad-smoke -addr 127.0.0.1:0 -addr-file /tmp/nucad-smoke-addr & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s /tmp/nucad-smoke-addr ] && break; sleep 0.1; done; \
	[ -s /tmp/nucad-smoke-addr ] || { echo "nucad did not come up"; kill $$pid; exit 1; }; \
	/tmp/nucaload-smoke -addr "http://$$(cat /tmp/nucad-smoke-addr)" \
		-n 60 -c 4 -clients 3 -unique 6 -accesses 300 -require-hits; rc=$$?; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -f /tmp/nucad-smoke /tmp/nucaload-smoke /tmp/nucad-smoke-addr; \
	exit $$rc
	@echo "serve smoke: ok"

# Static verification of the whole design catalogue: the
# channel-dependence deadlock check for the buffered default engine,
# then the productive-route livelock check for the deflecting engine.
verify:
	$(GO) run ./cmd/nucasim -verify-routing
	$(GO) run ./cmd/nucasim -router bufferless -verify-routing

check: fmt vet benchmark-test race racelong conformance benchsmoke smoke cmp-smoke pareto-smoke opt-smoke serve-smoke verify

clean:
	$(GO) clean ./...
