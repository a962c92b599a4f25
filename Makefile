# Tier-1 verification is `make test`; `make check` is the CI gate: gofmt,
# vet (root and benchmark modules), the full test suite (which includes cmd/cli_test.go's end-to-end
# drive of the four binaries and the two examples: telemetry trace, the
# CMP CLI golden, the cmp and pareto sweeps, static routing verification,
# the examples' stdout goldens, a deterministic placement search and a
# nucad serve-and-drain cycle over net/http; and the root package's
# dead-code guard, which type-checks the module once and fails on a
# declaration under internal/ that no non-test code uses, matched by
# object, and on a struct field there that non-test code never reads),
# the benchmark module's own tests, and one race pass that runs each
# test once under the detector: the short-mode suite (the run-invariance
# matrix, TestRunInvariance, among it), then the two tests that -short
# cuts down, in full: the single-core protocol conformance matrix, every
# script of up to three accesses on one set (28,448 runs, ~24 s under the
# detector on 2 vCPUs), and the 54-run catalogue golden sweep.

GO ?= go

.PHONY: build test benchmark-test check fmt vet race clean

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

# Every test once under the race detector. The short-mode suite covers
# the parallel experiment engine, the CMP fabric, nucad, core.Runtime's
# shared warm images, worker free list and design memo, and the
# run-invariance matrix, which runs one job list through every way core
# executes a run, concurrent ones included. -short shrinks or skips the
# tests too long for the detector (the full figure sweeps, the CLI
# drive); the second command runs in full the two it cuts that stay
# quick: TestConformance (scripts of up to three accesses, not two) and
# TestCatalogueGoldens (skipped under -short).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run '^(TestConformance|TestCatalogueGoldens)$$' ./internal/cache/ ./internal/conformance/

check: fmt vet test benchmark-test race

clean:
	$(GO) clean ./...
