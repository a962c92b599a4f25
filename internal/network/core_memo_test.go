package network_test

import (
	"strings"
	"testing"

	"nucanet/internal/core"
)

// TestCanonicalKeyUnsupportedEngineNotMemoised lives here because this
// test binary registers test-picky, an engine whose Supports rejects
// every topology (engines_test.go); core's own tests cannot register one
// without leaking it into every sweep over router.Names(). Core's
// process-wide design memo stores successes only, so a rejected catalogue
// design fails identically on every call through every entry point, and
// the design still resolves under its own engine afterwards.
func TestCanonicalKeyUnsupportedEngineNotMemoised(t *testing.T) {
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
