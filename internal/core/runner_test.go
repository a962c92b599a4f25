package core

import (
	"strings"
	"testing"
)

// TestOptionsValidate pins Validate as Run's front door: on every kind
// of bad option the two fail with the same message. (An unsupported
// engine x topology pair is not a row: no registered engine rejects a
// registered topology, and registering one that does would leak into
// every test that enumerates router.Names(). Both paths share
// checkOptions' d.Validate call for it.)
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"unknown design", func(o *Options) { o.DesignID = "Z" }, "unknown design"},
		{"unknown benchmark", func(o *Options) { o.Benchmark = "nope" }, "unknown"},
		{"unknown router", func(o *Options) { o.Router = "optical" }, "unknown engine"},
		{"bad policy", func(o *Options) { o.Policy = Options{}.Policy + 99 }, "unregistered policy"},
		{"bad mode", func(o *Options) { o.Mode = Options{}.Mode + 99 }, "unknown mode"},
		{"zero accesses", func(o *Options) { o.Accesses = 0 }, "positive"},
		{"negative accesses", func(o *Options) { o.Accesses = -5 }, "positive"},
		{"negative cores", func(o *Options) { o.Cores = -1 }, "cores must be non-negative"},
		{"halo with cores", func(o *Options) { o.DesignID, o.Cores = "F", 2 }, "design F is radial (halo)"},
		{"mesh narrower than cores", func(o *Options) { o.Cores = 17 }, "out of range [1,16]"},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mut(&o)
		verr := o.Validate()
		if verr == nil || !strings.Contains(verr.Error(), tc.want) {
			t.Errorf("%s: Validate got %v, want error containing %q", tc.name, verr, tc.want)
			continue
		}
		if _, rerr := Run(o); rerr == nil || rerr.Error() != verr.Error() {
			t.Errorf("%s: Run got %v, Validate got %v; want the same error", tc.name, rerr, verr)
		}
	}
}
