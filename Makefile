# Tier-1 verification is `make test`; `make check` is the CI gate: gofmt,
# vet (root and benchmark modules), the full test suite (which includes cmd/cli_test.go's end-to-end
# drive of the five binaries and the two examples: telemetry trace, the
# CMP CLI golden, the cmp and pareto sweeps, static routing verification,
# the examples' stdout goldens, a deterministic placement search and a
# nucad/nucaload serve-and-drain cycle; and the root package's
# dead-export test, which fails on an exported func under internal/ that
# no non-test file names), the benchmark module's own tests, the race
# detector over the short-mode subset (which includes the engine's
# determinism regressions) and one full race pass over the quick
# packages, the protocol conformance matrices among them.

GO ?= go

.PHONY: build test benchmark-test check fmt vet race racelong clean

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

# The benchmark module is vetted too: the root ./... does not reach it,
# so an internal API change could otherwise break the harness unseen.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Short-mode subset under the race detector: exercises the parallel
# experiment engine, the CMP sweep, and every unit test, while skipping
# the multi-minute full figure sweeps.
race:
	$(GO) test -race -short ./...

# Full (non-short) race pass over the packages whose tests stay quick
# un-shortened — everything shared across the parallel engine's workers
# (topology builders, routing verifier, policy and router engines)
# and every piece of cross-goroutine state (the CMP fabric's ports,
# nucad's scheduler, cache, and coalescing map), the single-core and CMP
# protocol conformance matrices (internal/conformance) — plus the engine
# (shared prepared artifacts), Run and core.Runtime (the warm images
# every run's banks read through to until they first write a set, the
# worker free list, the design memo), CMP and canonical-hash tests of
# internal/core, whose full figure sweeps are too long for the detector.
RACELONG_PKGS = ./internal/topology/ ./internal/routing/ ./internal/cache/ \
	./internal/router/ ./internal/network/ ./internal/place/ \
	./internal/cmp/ ./internal/cpu/ ./internal/serve/ ./internal/conformance/
racelong:
	$(GO) test -race $(RACELONG_PKGS)
	$(GO) test -race -run 'TestEngine|TestCMP|TestCanonicalKey|TestRun|TestRuntime' ./internal/core/

check: fmt vet test benchmark-test race racelong

clean:
	$(GO) clean ./...
