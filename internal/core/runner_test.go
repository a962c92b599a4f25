package core

import (
	"strings"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
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

// TestRunnerMatchesRun pins the Runner as a pure front-end: the same
// options through NewRunner and through Run produce identical results.
func TestRunnerMatchesRun(t *testing.T) {
	direct := DefaultOptions()
	direct.DesignID = "F"
	direct.Benchmark = "mcf"
	direct.Accesses = 800
	direct.Seed = 7
	want, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(
		WithDesignID("F"),
		WithScheme(cache.FastLRU, cache.Multicast),
		WithBenchmark("mcf"),
		WithAccesses(800),
		WithSeed(7),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.IPC != want.IPC || got.Cycles != want.Cycles || got.HitRate != want.HitRate {
		t.Fatalf("runner diverged from Run: IPC %v/%v cycles %v/%v",
			got.IPC, want.IPC, got.Cycles, want.Cycles)
	}
}

func TestRunnerValidatesBeforeRunning(t *testing.T) {
	if _, err := NewRunner(WithAccesses(0)).Run(); err == nil {
		t.Fatal("Runner ran with zero accesses")
	}
	if _, err := NewRunner(WithDesignID("Z")).Run(); err == nil {
		t.Fatal("Runner ran with an unknown design")
	}
}

// TestRunnerOptionsCompose checks option ordering (later wins) and that
// WithDesign overrides an earlier id.
func TestRunnerOptionsCompose(t *testing.T) {
	r := NewRunner(WithBenchmark("gcc"), WithBenchmark("art"))
	if got := r.Options().Benchmark; got != "art" {
		t.Fatalf("later option did not win: %q", got)
	}
	ad, err := config.DesignByID("D")
	if err != nil {
		t.Fatal(err)
	}
	ad.ID = "D-adhoc"
	r = NewRunner(WithDesignID("A"), WithDesign(&ad))
	if err := r.Options().Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := config.Resolve(r.Options().DesignID, r.Options().Design)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "D-adhoc" {
		t.Fatalf("WithDesign lost to WithDesignID: resolved %q", d.ID)
	}
	// And the reverse order: a later WithDesignID clears the override.
	r = NewRunner(WithDesign(&ad), WithDesignID("A"))
	d, err = config.Resolve(r.Options().DesignID, r.Options().Design)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "A" {
		t.Fatalf("WithDesignID did not clear the override: resolved %q", d.ID)
	}
}
