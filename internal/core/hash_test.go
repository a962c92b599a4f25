package core

import (
	"reflect"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/telemetry"
)

func catalogue(t *testing.T) []config.Design {
	t.Helper()
	return append(config.Designs(), config.ExtraDesigns()...)
}

func allPolicies(t *testing.T) []cache.Policy {
	t.Helper()
	names := cache.PolicyNames()
	out := make([]cache.Policy, len(names))
	for i, n := range names {
		p, err := cache.ParsePolicy(n)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", n, err)
		}
		out[i] = p
	}
	return out
}

// TestCanonicalKeyDeterministic pins the two equalities the cache needs:
// independently constructed equal options hash equal, and a catalogue id
// hashes identically to a byte-equal ad-hoc override (content addressing,
// not name addressing).
func TestCanonicalKeyDeterministic(t *testing.T) {
	a1, err := CanonicalKey(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := CanonicalKey(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("equal options hash unequal: %s vs %s", a1, a2)
	}

	da, err := config.DesignByID("A")
	if err != nil {
		t.Fatal(err)
	}
	byID := DefaultOptions()
	byOverride := DefaultOptions()
	byOverride.DesignID = ""
	byOverride.Design = &da
	k1, err := CanonicalKey(byID)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(byOverride)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("catalogue id and equal override hash differently:\n id: %s\n ov: %s", k1, k2)
	}
}

// TestCanonicalKeyInjectiveOverRegistries enumerates the full registry
// product — every catalogue design (which determines the routing
// algorithm via its topology) x every registered policy x both modes —
// and requires the hash to be total (no errors) and injective (all keys
// distinct). It also requires the catalogue to exercise every registered
// routing algorithm, so the routing dimension is genuinely covered.
func TestCanonicalKeyInjectiveOverRegistries(t *testing.T) {
	designs := catalogue(t)
	policies := allPolicies(t)
	modes := []cache.Mode{cache.Unicast, cache.Multicast}

	routings := map[string]bool{}
	seen := map[string]string{} // key -> config label
	for _, d := range designs {
		topo, err := d.Build()
		if err != nil {
			t.Fatalf("design %s: %v", d.ID, err)
		}
		routings[topo.Routing] = true
		for _, p := range policies {
			for _, m := range modes {
				for _, eng := range router.Names() {
					o := DefaultOptions()
					o.DesignID = d.ID
					o.Policy, o.Mode = p, m
					o.Router = eng
					key, err := CanonicalKey(o)
					if err != nil {
						t.Fatalf("CanonicalKey(%s/%v/%v/%s): %v", d.ID, p, m, eng, err)
					}
					label := d.ID + "/" + p.String() + "/" + m.String() + "/" + eng
					if prev, dup := seen[key]; dup {
						t.Fatalf("hash collision: %s and %s both map to %s", prev, label, key)
					}
					seen[key] = label
				}
			}
		}
	}
	for _, alg := range routing.AlgorithmNames() {
		if !routings[alg] {
			t.Errorf("registered routing algorithm %q not exercised by any catalogue design; extend the catalogue (or this test) so hashing stays proven over the whole registry", alg)
		}
	}
}

// TestCanonicalKeySensitivity checks the remaining option axes each
// perturb the key.
func TestCanonicalKeySensitivity(t *testing.T) {
	base := DefaultOptions()
	baseKey, err := CanonicalKey(base)
	if err != nil {
		t.Fatal(err)
	}
	perturb := map[string]Options{}
	o := base
	o.Benchmark = "mcf"
	perturb["benchmark"] = o
	o = base
	o.Accesses = base.Accesses + 1
	perturb["accesses"] = o
	o = base
	o.Seed = base.Seed + 1
	perturb["seed"] = o
	o = base
	o.CPU.Window = base.CPU.Window + 1
	perturb["cpu.window"] = o
	o = base
	o.Telemetry = telemetry.Config{Heatmap: true}
	perturb["telemetry.heatmap"] = o
	o = base
	o.Telemetry = telemetry.Config{SampleEvery: 100}
	perturb["telemetry.sample"] = o
	o = base
	o.Router = "bufferless"
	perturb["router.bufferless"] = o
	o = base
	o.Router = "ring-lite"
	perturb["router.ring-lite"] = o
	for name, opt := range perturb {
		key, err := CanonicalKey(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the canonical key", name)
		}
	}
}

// TestCanonicalKeyCoversAllOptionFields walks core.Options by reflection
// and requires that changing each field changes the key. A field added
// to Options without a canonicalRun extension (and a perturbation here)
// fails this test instead of silently aliasing distinct configurations
// in the result cache.
func TestCanonicalKeyCoversAllOptionFields(t *testing.T) {
	dd, err := config.DesignByID("D")
	if err != nil {
		t.Fatal(err)
	}
	perturb := map[string]func(*Options){
		"DesignID":  func(o *Options) { o.DesignID = "B" },
		"Design":    func(o *Options) { o.Design = &dd },
		"Policy":    func(o *Options) { o.Policy = cache.LRU },
		"Mode":      func(o *Options) { o.Mode = cache.Unicast },
		"Benchmark": func(o *Options) { o.Benchmark = "mcf" },
		"Router":    func(o *Options) { o.Router = "bufferless" },
		"Accesses":  func(o *Options) { o.Accesses++ },
		"Seed":      func(o *Options) { o.Seed++ },
		"CPU":       func(o *Options) { o.CPU.Window++ },
		"Telemetry": func(o *Options) { o.Telemetry.Heatmap = true },
		"Cores":     func(o *Options) { o.Cores = 2 },
	}
	baseKey, err := CanonicalKey(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := perturb[name]
		if !ok {
			t.Errorf("Options.%s has no perturbation here: extend canonicalRun in hash.go and this table", name)
			continue
		}
		delete(perturb, name)
		o := DefaultOptions()
		f(&o)
		key, err := CanonicalKey(o)
		if err != nil {
			t.Fatalf("Options.%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing Options.%s did not change the canonical key", name)
		}
	}
	for name := range perturb {
		t.Errorf("this test perturbs %q, which Options no longer has", name)
	}
}

// TestCanonicalKeyErrors pins that unresolvable options error instead of
// hashing (totality is over *valid* configurations only).
func TestCanonicalKeyErrors(t *testing.T) {
	bad := DefaultOptions()
	bad.DesignID = "no-such-design"
	if _, err := CanonicalKey(bad); err == nil {
		t.Error("unknown design: want error")
	}
	bad = DefaultOptions()
	bad.Policy = cache.Policy(250)
	if _, err := CanonicalKey(bad); err == nil {
		t.Error("invalid policy: want error")
	}
	bad = DefaultOptions()
	bad.Mode = cache.Mode(250)
	if _, err := CanonicalKey(bad); err == nil {
		t.Error("invalid mode: want error")
	}
}
