package core

import (
	"bytes"
	"fmt"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/router"
)

// TestRouterEnginesRunCatalogue is the engine x design conformance
// sweep: every registered router microarchitecture must run every
// catalogue design to completion, and repeating a run must reproduce it
// byte-identically (the fingerprint covers every measurement, stats
// rollup, and the full latency accumulator).
func TestRouterEnginesRunCatalogue(t *testing.T) {
	accesses := 300
	if testing.Short() {
		accesses = 120
	}
	for _, eng := range router.Names() {
		for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
			eng, id := eng, d.ID
			t.Run(eng+"-"+id, func(t *testing.T) {
				t.Parallel()
				opt := Options{
					DesignID: id, Policy: cache.FastLRU, Mode: cache.Multicast,
					Benchmark: "gcc", Accesses: accesses, Seed: 42, Router: eng,
				}
				r1, err := Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				fp1 := fingerprint(t, []Result{r1})
				fp2 := fingerprint(t, []Result{r2})
				if !bytes.Equal(fp1, fp2) {
					t.Errorf("repeat run diverges:\n--- run 1 ---\n%s--- run 2 ---\n%s", fp1, fp2)
				}
				if r1.Design.Router.Engine != eng {
					t.Errorf("result records engine %q, want %q", r1.Design.Router.Engine, eng)
				}
				if eng == "bufferless" && id != "R" && r1.Network.Router.Deflections == 0 {
					t.Errorf("bufferless run on %s recorded no deflections; the deflection path did not run", id)
				}
			})
		}
	}
}

// TestRouterEnginesDeterministicAcrossWorkers extends the parallel
// engine's determinism regression to the router registry: designs A, D,
// and F (mesh, simplified mesh, halo) crossed with every registered
// engine, the same job list run sequentially and on 8 workers, must
// produce byte-identical stats.
func TestRouterEnginesDeterministicAcrossWorkers(t *testing.T) {
	accesses := 300
	if testing.Short() {
		accesses = 120
	}
	for _, eng := range router.Names() {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			t.Parallel()
			var opts []Options
			for _, id := range []string{"A", "D", "F"} {
				for _, seed := range []uint64{7, 42} {
					opts = append(opts, Options{
						DesignID: id, Policy: cache.FastLRU, Mode: cache.Multicast,
						Benchmark: "gcc", Accesses: accesses, Seed: seed, Router: eng,
					})
				}
			}
			seq, _, err := NewEngine(1).RunAll(opts)
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := NewEngine(8).RunAll(opts)
			if err != nil {
				t.Fatal(err)
			}
			fpSeq, fpPar := fingerprint(t, seq), fingerprint(t, par)
			if !bytes.Equal(fpSeq, fpPar) {
				t.Errorf("sequential and parallel sweeps diverge:\n--- j=1 ---\n%s--- j=8 ---\n%s",
					fpSeq, fpPar)
			}
		})
	}
}

// TestDefaultRouterAliasesWormhole pins the compatibility contract of the
// registry refactor: an empty router selection, the explicit default
// engine name, and a design left entirely alone must simulate
// byte-identically and share one canonical cache key — existing configs
// see the exact pre-registry wormhole router.
func TestDefaultRouterAliasesWormhole(t *testing.T) {
	base := Options{
		DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast,
		Benchmark: "gcc", Accesses: 200, Seed: 42,
	}
	explicit := base
	explicit.Router = router.DefaultEngine

	rBase, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rExp, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	// Options differ by construction; compare the measurements only.
	rBase.Options, rExp.Options = Options{}, Options{}
	fp1, fp2 := fingerprint(t, []Result{rBase}), fingerprint(t, []Result{rExp})
	if !bytes.Equal(fp1, fp2) {
		t.Errorf("empty and explicit default engine diverge:\n--- empty ---\n%s--- explicit ---\n%s", fp1, fp2)
	}

	k1, err := CanonicalKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("empty and explicit default engine hash differently:\n empty: %s\n explicit: %s", k1, k2)
	}
}

// TestRouterOptionValidation covers the fail-fast path: unknown engine
// names are rejected by Validate, Run, and CanonicalKey alike, and the
// error names the registry's contents.
func TestRouterOptionValidation(t *testing.T) {
	opt := DefaultOptions()
	opt.Router = "optical"
	if err := opt.Validate(); err == nil {
		t.Error("Validate accepted unknown router engine")
	}
	if _, err := Run(opt); err == nil {
		t.Error("Run accepted unknown router engine")
	}
	if _, err := CanonicalKey(opt); err == nil {
		t.Error("CanonicalKey accepted unknown router engine")
	}
	_, err := Run(opt)
	want := fmt.Sprintf("%v", router.Names())
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not list registered engines %s", err, want)
	}
}

// TestParetoSweepShape runs the Pareto experiment at smoke size and pins
// its structure: full coverage of the engine x design x scheme grid, a
// run for exactly the points the engines accept, a non-empty frontier,
// no dominated point marked, and measurements on every accepted point.
func TestParetoSweepShape(t *testing.T) {
	cfg := DefaultExpConfig()
	cfg.Accesses = 120
	runs := runExperiment(t, "pareto", cfg).Runs
	pts := paretoPoints(cfg, runs)
	want := len(router.Names()) * 4 * 2
	if len(pts) != want {
		t.Fatalf("points = %d, want %d (engines x 4 designs x 2 schemes)", len(pts), want)
	}
	frontier, measured := 0, 0
	for _, p := range pts {
		if p.Skipped != "" {
			if p.RouterName == router.DefaultEngine {
				t.Errorf("reference engine skipped %s/%s: %s", p.DesignID, p.Scheme, p.Skipped)
			}
			continue
		}
		if p.AreaMM2 <= 0 || p.AvgLat <= 0 || p.IPC <= 0 || p.EnergyNJ <= 0 {
			t.Errorf("point %s/%s/%s has empty measurements: %+v", p.RouterName, p.DesignID, p.Scheme, p)
		}
		if p.Frontier {
			frontier++
		}
		if r := runs[measured]; r.Options.Router != p.RouterName || r.Design.ID != p.DesignID || r.IPC != p.IPC {
			t.Errorf("point %s/%s/%s reads run %d (%s/%s)", p.RouterName, p.DesignID, p.Scheme, measured, r.Options.Router, r.Design.ID)
		}
		measured++
	}
	if measured != len(runs) {
		t.Errorf("%d measured points, %d runs", measured, len(runs))
	}
	if frontier == 0 {
		t.Fatal("no frontier points")
	}
	for i, p := range pts {
		if p.Skipped != "" || !p.Frontier {
			continue
		}
		for k, q := range pts {
			if k != i && q.Skipped == "" && p.dominated(q) {
				t.Errorf("frontier point %s/%s/%s is dominated by %s/%s/%s",
					p.RouterName, p.DesignID, p.Scheme, q.RouterName, q.DesignID, q.Scheme)
			}
		}
	}
}
