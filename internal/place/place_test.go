package place

import (
	"reflect"
	"testing"

	"nucanet/internal/config"
	"nucanet/internal/sim"
)

// TestDesignFInSpace pins the encoding's anchor: the seed candidate
// lowers to exactly the paper's Design F — same banks, same derived wire
// delays, same memory wire — so the published winner is a point of the
// search space, not an external baseline.
func TestDesignFInSpace(t *testing.T) {
	d := Seed().Design()
	f, err := config.DesignByID("F")
	if err != nil {
		t.Fatal(err)
	}
	if d.Topology != f.Topology {
		t.Errorf("seed family %q, want %q", d.Topology, f.Topology)
	}
	if !reflect.DeepEqual(d.Params, f.Params) {
		t.Errorf("seed params %+v, want Design F's %+v", d.Params, f.Params)
	}
	if !reflect.DeepEqual(d.Banks, f.Banks) {
		t.Errorf("seed banks %v, want Design F's %v", d.Banks, f.Banks)
	}
	if err := Seed().Verify(0); err != nil {
		t.Errorf("seed failed the safety gate: %v", err)
	}
}

// TestDesignAInSpace checks the mesh corner the same way: a uniform
// 16x1-way stack at Design A's endpoints builds the identical graph
// (A's broadcast VertDelay{1} and our per-row [1 x16] are the same wires).
func TestDesignAInSpace(t *testing.T) {
	c := Candidate{Family: "mesh", Stack: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, CoreX: 7, MemX: 8}
	a, err := config.DesignByID("A")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Design().Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ports, want.Ports) || got.Core != want.Core || got.Mem != want.Mem {
		t.Error("mesh candidate at Design A's coordinates builds a different graph")
	}
}

// TestMutateClosedAndDeterministic: mutation stays inside the valid
// encoding (alphabet, capacity, endpoint ranges) and identical seeds
// walk identical paths.
func TestMutateClosedAndDeterministic(t *testing.T) {
	walk := func(seed uint64) []string {
		rng := sim.NewRNG(seed)
		c := Seed()
		var path []string
		for i := 0; i < 200; i++ {
			c = Mutate(c, rng)
			if !c.Valid() {
				t.Fatalf("step %d: mutation left the space: %s", i, c)
			}
			path = append(path, c.String())
		}
		return path
	}
	if !reflect.DeepEqual(walk(3), walk(3)) {
		t.Error("identical seeds produced different mutation walks")
	}
}

// TestCandidateCanonHash: representational freedom (halo endpoint
// columns, simplified-mesh MemX) never splits one machine into two cache
// keys.
func TestCandidateCanonHash(t *testing.T) {
	a := Candidate{Family: "halo", Stack: []int{1, 1, 2, 4, 8}, CoreX: 3, MemX: 9}
	b := Seed()
	if a.String() != b.String() || a.Hash() != b.Hash() {
		t.Errorf("halo canon split: %q vs %q", a, b)
	}
	sm1 := Candidate{Family: "simplified-mesh", Stack: []int{4, 4, 4, 4}, CoreX: 7, MemX: 0}
	sm2 := Candidate{Family: "simplified-mesh", Stack: []int{4, 4, 4, 4}, CoreX: 7, MemX: 12}
	if sm1.String() != sm2.String() {
		t.Errorf("simplified-mesh canon split: %q vs %q", sm1, sm2)
	}
}

// TestVerifyRejectsMalformed: the gate refuses encodings outside the
// space before any simulation.
func TestVerifyRejectsMalformed(t *testing.T) {
	bad := []Candidate{
		{Family: "halo", Stack: []int{8, 8, 8}},                  // 24 ways
		{Family: "mesh", Stack: []int{16}},                       // off-alphabet bank
		{Family: "torus", Stack: []int{8, 8}},                    // unknown family
		{Family: "mesh", Stack: []int{8, 8}, CoreX: 20, MemX: 0}, // endpoint off-die
	}
	for _, c := range bad {
		if err := c.Verify(0); err == nil {
			t.Errorf("Verify accepted malformed candidate %+v", c)
		}
	}
}

// tinySearch is DefaultConfig cut to a test's size: seed 5, waves of 3,
// 60/120-access scoring on gcc alone, two workers.
func tinySearch(budget int) Config {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Budget, cfg.Wave = 5, budget, 3
	cfg.ScreenAccesses, cfg.ConfirmAccesses = 60, 120
	cfg.Benchmarks, cfg.Workers = []string{"gcc"}, 2
	return cfg
}

// TestSearchDeterministicAndSound runs a tiny search twice: identical
// winners (same hash, same scores), accounting consistent, and the
// confirmed best never below the Design F baseline — the baseline is in
// the space and always confirmed alongside the shortlist.
func TestSearchDeterministicAndSound(t *testing.T) {
	cfg := tinySearch(6)
	run := func() *Result {
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Best.Hash() != r2.Best.Hash() || r1.BestScore != r2.BestScore || r1.Screened != r2.Screened {
		t.Errorf("search not deterministic: (%s %.6f n=%d) vs (%s %.6f n=%d)",
			r1.Best, r1.BestScore, r1.Screened, r2.Best, r2.BestScore, r2.Screened)
	}
	if r1.BestScore < r1.BaselineScore {
		t.Errorf("best %.6f below the seeded baseline %.6f", r1.BestScore, r1.BaselineScore)
	}
	if r1.BestArea.L2MM2() > r1.BaselineArea.L2MM2()*(1+1e-9) {
		t.Errorf("best area %.3f exceeds the baseline gate %.3f", r1.BestArea.L2MM2(), r1.BaselineArea.L2MM2())
	}
	if r1.Screened > cfg.Budget {
		t.Errorf("screened %d candidates over the %d budget", r1.Screened, cfg.Budget)
	}
}

// TestSearchWithCoresScreensCMP pins the multi-core screening path: a
// Cores > 0 search starts from the Design A mesh, scores candidates as
// CMP runs through the engine, stays deterministic, and never graduates a
// radial candidate (halos cannot host a core grid).
func TestSearchWithCoresScreensCMP(t *testing.T) {
	cfg := tinySearch(5)
	cfg.Cores = 2
	run := func() *Result {
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Best.Hash() != r2.Best.Hash() || r1.BestScore != r2.BestScore || r1.Screened != r2.Screened {
		t.Errorf("cores=2 search not deterministic: (%s %.6f n=%d) vs (%s %.6f n=%d)",
			r1.Best, r1.BestScore, r1.Screened, r2.Best, r2.BestScore, r2.Screened)
	}
	for _, s := range r1.Confirmed {
		if s.Candidate.Family == "halo" {
			t.Errorf("radial candidate %s survived a cores=2 search", s.Candidate)
		}
		if err := s.Candidate.Verify(cfg.Cores); err != nil {
			t.Errorf("confirmed candidate %s cannot host %d cores: %v", s.Candidate, cfg.Cores, err)
		}
	}
	if r1.BestScore < r1.BaselineScore {
		t.Errorf("best %.6f below the seeded baseline %.6f", r1.BestScore, r1.BaselineScore)
	}
	// The single-core and 2-core searches answer different questions:
	// the per-core score under sharing must sit below the solo score.
	solo := tinySearch(5)
	rs, err := Search(solo)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestScore >= rs.BestScore {
		t.Errorf("per-core IPC under 2-way sharing (%.6f) not below solo IPC (%.6f)",
			r1.BestScore, rs.BestScore)
	}
}

// TestHostsCores pins the gate's CMP half: grids host up to their width,
// halos never do.
func TestHostsCores(t *testing.T) {
	mesh := SeedCMP()
	if err := mesh.Verify(4); err != nil {
		t.Errorf("mesh rejects 4 cores: %v", err)
	}
	if err := mesh.Verify(Columns + 1); err == nil {
		t.Error("mesh accepted more cores than columns")
	}
	if err := Seed().Verify(2); err == nil {
		t.Error("halo accepted a CMP fabric")
	}
	if err := Seed().Verify(0); err != nil {
		t.Errorf("cores=0 must always pass: %v", err)
	}
}
