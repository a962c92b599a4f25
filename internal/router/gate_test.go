package router_test

import (
	"strings"
	"testing"

	"nucanet/internal/core"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// The engines table is closed, so core's tests cannot name an engine
// that fails a construction gate. This test binary can: WithEngine
// (export_test.go) adds one for the length of a test. Their constructors
// must never run.
func mustNotBuild(topology.NodeID, *topology.Topology, *routing.Table, router.Config, *sim.Kernel, router.Sink, *router.Arena) router.Engine {
	panic("test engine constructed despite failing its construction gate")
}

// picky supports no topology at all; unfairDeflect deflects without an
// age-monotone arbiter, which the livelock proof rejects.
var (
	picky = router.Builder{
		Name:        "test-picky",
		Description: "supports nothing (must be rejected)",
		New:         mustNotBuild,
		Supports: func(*topology.Topology, router.Config) error {
			return errPicky{}
		},
	}
	unfairDeflect = router.Builder{
		Name:        "test-unfair-deflect",
		Description: "deflection without age priority (must be rejected)",
		New:         mustNotBuild,
		Deflecting:  true,
	}
)

type errPicky struct{}

func (errPicky) Error() string { return "this engine supports no topology at all" }

// TestCanonicalKeyUnsupportedEngineNotMemoised: under picky, whose
// Supports rejects every topology, a catalogue design fails. Core's
// design memo stores successes only, so the design fails identically on
// every call through every entry point, and it still resolves under its
// own engine afterwards.
func TestCanonicalKeyUnsupportedEngineNotMemoised(t *testing.T) {
	router.WithEngine(t, picky)
	o := core.DefaultOptions()
	o.DesignID, o.Router, o.Accesses = "F", "test-picky", 50
	var first string
	for pass := 1; pass <= 2; pass++ {
		_, kerr := core.CanonicalKey(o)
		_, rerr := core.Run(o)
		for name, err := range map[string]error{"Validate": o.Validate(), "CanonicalKey": kerr, "Run": rerr} {
			if err == nil || !strings.Contains(err.Error(), "cannot run this design") {
				t.Fatalf("%s call %d: err = %v, want the Supports rejection", name, pass, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s call %d: %q, want %q", name, pass, err, first)
			}
		}
	}
	o.Router = ""
	if _, err := core.CanonicalKey(o); err != nil {
		t.Errorf("design F under its own engine after the rejection: %v", err)
	}
}

// TestValidateAgreesWithRunOnLivelock: unfairDeflect passes every
// configuration check (it supports every topology) and fails only the
// livelock-freedom proof network construction enforces. That proof is
// part of core's design gate, so Validate, CanonicalKey and Run reject
// the design with one identical error.
func TestValidateAgreesWithRunOnLivelock(t *testing.T) {
	router.WithEngine(t, unfairDeflect)
	o := core.DefaultOptions()
	o.DesignID, o.Router, o.Accesses = "F", "test-unfair-deflect", 50
	verr := o.Validate()
	if verr == nil || !strings.Contains(verr.Error(), "age-monotone") {
		t.Fatalf("Validate: err = %v, want the livelock rejection", verr)
	}
	_, kerr := core.CanonicalKey(o)
	_, rerr := core.Run(o)
	for name, err := range map[string]error{"CanonicalKey": kerr, "Run": rerr} {
		if err == nil || err.Error() != verr.Error() {
			t.Errorf("%s: err = %v, want Validate's %q", name, err, verr)
		}
	}
}
