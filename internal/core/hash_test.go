package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/cpu"
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
		p, err := cache.PolicyByName(n)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", n, err)
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
// to Options without a canonicalTail extension (and a perturbation here)
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
			t.Errorf("Options.%s has no perturbation here: extend canonicalTail in hash.go and this table", name)
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

// TestCanonicalKeyGolden pins the key bytes themselves: the serving
// cache, nucaload's expectations and every stored config_hash depend on
// them, so a change to the encoding must show here, not only as moved
// response fingerprints under benchmark/. The keys were computed by the
// whole-struct json.Marshal this file's hash.go replaced (PR 24's tree);
// that encoding is refCanonicalRun below, which the second half checks
// CanonicalKey against over the registry product.
func TestCanonicalKeyGolden(t *testing.T) {
	df, err := config.DesignByID("F")
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		name string
		o    Options
		want string
	}
	var cases []golden
	// DefaultOptions on each catalogue design under each engine; "" and
	// the default engine's own name share a key.
	for _, row := range []struct{ id, wormhole, bufferless, ringLite string }{
		{"A", "32a98a1966b3aedac88bdf943c13308069d6c9ac41cd7589166ac8f5474b85e7", "915e0f6e2359f294dd7301223b155086f69b4713ac42714603ad85929928db7e", "f8e5c8362d53a12e030b1c8ff0bd2f7bba18f1a818238d801f5ecd7e21c052ad"},
		{"B", "094a6edc2318b1e3c4f8c92dbce0a0ffeff55db019ee318fb2f5b4eb25418094", "a44e5a28408f36d55e2c648c3e8cd8c6217e3301865c85c8a4f050628f7bf010", "b47b6ac4ccdb441aa633cd6fbeac0696f8eb498b03258e889f9344ce729cb45a"},
		{"C", "9d0e82304b46151fe4ba8d8b9cccfc59edd64279a084e2b5f0c857e21a8ca4a6", "2bf0e6896eaf3b70525117bc6e629f9ae49250e4606cbe5a73605db918766a95", "27828140635d5ff4cd278f57d7ef2431f6c86bbdfcc0c6194910b712d0858ad5"},
		{"D", "db6cff7e7103d878c13cdfa5939abf5b969e2e137e2b5c06eadde7d42d3d486f", "059ee57463813adc232fc96888e46d41a86314f43e29fc50e9920ac8fe035f79", "7db9f35904d9c8719cbb6c9d97cacf58882a779b84180056b66ad3e82102dcac"},
		{"E", "ab337aa065eb69033288196be16557be896eb3a02738937b606eddd2123ef2ba", "d33b5b26029df698d3c42ceefdafa94bd7a96525a3a885bf7a49c95b977280a2", "4d78943b322dd7de0d238fba2e0b0e44cc7422ca9dc1f0038e2c55004d03d574"},
		{"F", "8e6bd7261b00a3f6b89fbaf63f1fc9ca22a27dac9fa9f34bb9a5225b09d27cd5", "d5299bd8b2b27c9df2b3cd846d03869c6e1de98d7ebb83d1d1379c6e21e8bfbb", "6fc92a8d9cb960ce2d4d7f4725d14d557769a4d53180b67701292c1ce2f28f5c"},
		{"R", "cae4c3314c80c06a726f174270a5388f913917281d97844342e9280fd26eb8cd", "b8c660c9ebb6be79023d44312b5d99e744af1e78f892d44cc124b81b60022031", "1a72806a31c9f2285e97f528aa40afc17998954f490427f0e6f7a2c826a2eef3"},
		{"G", "e4bbcf13742d603d730a42a3dbf2aea03fd976db0284da5f000680f24340ee38", "21557202b6195df33297f5aa561150f02670b9c0e6fd0df09e4fa236d8cf367a", "56e7d6d8d633c4fd1105bceffe3c4b04aae544daa0d8a41557c0a32ed4e18191"},
		{"H2", "a8b403b735c8feb2a058e6a5a2b0a6cd0f4cf60bd338d848b7e8246c52682688", "0a21f0c0975951841c8aacf13b82f02150407d9366402b28ef6cc5267f401e8f", "0dd4ad708de101248555bfd3ac36584b4b21cdab1ea2a3b788debb70954d7bce"},
	} {
		for _, eng := range []struct{ name, want string }{
			{"", row.wormhole}, {router.DefaultEngine, row.wormhole},
			{"bufferless", row.bufferless}, {"ring-lite", row.ringLite},
		} {
			o := DefaultOptions()
			o.DesignID, o.Router = row.id, eng.name
			cases = append(cases, golden{row.id + "/" + eng.name, o, eng.want})
		}
	}
	o := DefaultOptions()
	o.Telemetry = telemetry.Config{Heatmap: true, SampleEvery: 100}
	cases = append(cases, golden{"telemetry", o, "b7cf9d844b755b6c16bbb87c5ccaf50956ad631e1f5a4c5e1b095e96ccb14c58"})
	o = DefaultOptions()
	o.DesignID, o.Cores = "H2", 2
	cases = append(cases, golden{"H2 x 2 cores", o, "793e1e36afe31480c43974957048ba55df881f60c26fe96b48d46212b388ef45"})
	o = DefaultOptions()
	o.CPU.Window = 16
	cases = append(cases, golden{"cpu.window", o, "90af676f011bf9522e42f77ff0a9184a1c858a4dc10bf250fc9e951b61cf9bef"})
	o = DefaultOptions()
	o.DesignID, o.Design = "", &df
	cases = append(cases, golden{"override = F", o, "8e6bd7261b00a3f6b89fbaf63f1fc9ca22a27dac9fa9f34bb9a5225b09d27cd5"})

	for _, tc := range cases {
		// Twice: the first call may fill the design memo, the second reads it.
		for pass := 1; pass <= 2; pass++ {
			if got := mustKey(t, tc.o); got != tc.want {
				t.Errorf("%s (call %d): key %s, want %s", tc.name, pass, got, tc.want)
			}
		}
	}

	// Every (design, policy, mode, engine) of the registry product hashes
	// exactly the whole-struct encoding.
	for _, d := range catalogue(t) {
		for _, p := range allPolicies(t) {
			for _, m := range []cache.Mode{cache.Unicast, cache.Multicast} {
				for _, eng := range append([]string{""}, router.Names()...) {
					o := DefaultOptions()
					o.DesignID, o.Policy, o.Mode, o.Router = d.ID, p, m, eng
					if got, want := mustKey(t, o), refKey(t, o); got != want {
						t.Errorf("%s/%v/%v/%q: key %s, reference encoding %s", d.ID, p, m, eng, got, want)
					}
				}
			}
		}
	}
}

// refCanonicalRun is the canonical image as one struct, the shape
// CanonicalKey marshaled whole before the design's part was memoised.
type refCanonicalRun struct {
	Design    config.Design
	Policy    string
	Mode      string
	Benchmark string
	Accesses  int
	Seed      uint64
	CPU       cpu.Config
	Telemetry telemetry.Config
	Cores     int
}

// refKey hashes o's image the way PR 24's CanonicalKey did.
func refKey(t *testing.T, o Options) string {
	t.Helper()
	rd, err := newResolvedDesign(o)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(refCanonicalRun{
		Design: rd.d, Policy: o.Policy.String(), Mode: o.Mode.String(),
		Benchmark: o.Benchmark, Accesses: o.Accesses, Seed: o.Seed,
		CPU: normalizedCPU(o), Telemetry: o.Telemetry, Cores: o.Cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func mustKey(t *testing.T, o Options) string {
	t.Helper()
	k, err := CanonicalKey(o)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCanonicalKeyTailMatchesJSON holds the written-out tail encoder to
// encoding/json: every leaf of canonicalTail, however deep, gets random
// values — mixed with strings json escapes and floats it writes in
// exponent form — and the two encodings must agree byte for byte. A new
// field of canonicalTail, cpu.Config or telemetry.Config shows up in
// json.Marshal's output and fails here until appendJSON encodes it.
func TestCanonicalKeyTailMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	strs := []string{"", "gcc", "fast-lru", "<a&b>", `q"\`, "tab\t", "é", "\xff", "\u2028", "~"}
	floats := []float64{0, math.Copysign(0, -1), 0.6, 1e-6, 9.99e-7, 1e21, 9.9e20, 5e-324, -2.5, 1e300}
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.String:
			v.SetString(strs[rng.IntN(len(strs))])
		case reflect.Int:
			v.SetInt(int64(rng.Uint64()) >> rng.IntN(64))
		case reflect.Uint64:
			v.SetUint(rng.Uint64() >> rng.IntN(64))
		case reflect.Bool:
			v.SetBool(rng.IntN(2) == 1)
		case reflect.Float64:
			if rng.IntN(2) == 0 {
				v.SetFloat(floats[rng.IntN(len(floats))])
			} else {
				v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(60)-30)))
			}
		default:
			t.Fatalf("canonicalTail has a %v leaf: encode it in appendJSON and fill it here", v.Type())
		}
	}
	for i := 0; i < 5000; i++ {
		var tl canonicalTail
		fill(reflect.ValueOf(&tl).Elem())
		want, err := json.Marshal(tl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tl.appendJSON(nil)
		if err != nil || string(got) != string(want[1:]) {
			t.Fatalf("%+v:\nappendJSON %s (%v)\njson       %s", tl, got, err, want[1:])
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tl := canonicalTail{CPU: cpu.Config{BlockingProb: f}}
		if _, err := tl.appendJSON(nil); err == nil {
			t.Errorf("BlockingProb %v encoded; json.Marshal rejects it", f)
		}
	}
}

// TestCanonicalKeyErrors pins that unresolvable options error instead of
// hashing (totality is over *valid* configurations only).
func TestCanonicalKeyErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"unknown design", func(o *Options) { o.DesignID = "no-such-design" }},
		{"invalid policy", func(o *Options) { o.Policy = cache.Policy(250) }},
		{"invalid mode", func(o *Options) { o.Mode = cache.Mode(250) }},
		{"unknown benchmark", func(o *Options) { o.Benchmark = "no-such-benchmark" }},
		{"zero accesses", func(o *Options) { o.Accesses = 0 }},
		{"negative cores", func(o *Options) { o.Cores = -3 }},
		{"cores on a radial design", func(o *Options) { o.DesignID, o.Cores = "E", 2 }},
		{"negative window", func(o *Options) { o.CPU.Window = -1 }},
	} {
		bad := DefaultOptions()
		tc.edit(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s: Validate accepts the options", tc.name)
		}
		if _, err := CanonicalKey(bad); err == nil {
			t.Errorf("%s: CanonicalKey returns a key for options Validate rejects", tc.name)
		}
	}
}
