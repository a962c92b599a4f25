package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// testDesign is a scaled-down mesh (w columns x h banks of 64KB) that keeps
// protocol behaviour identical to Design A while running fast.
func testDesign(w, h int) config.Design {
	banks := make([]bank.Spec, h)
	for i := range banks {
		banks[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return config.Design{
		ID: "T", Description: "test mesh",
		Topology: "mesh",
		Params: topology.Params{W: w, H: h, CoreX: w / 2, MemX: w / 2,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: banks, Router: router.DefaultConfig(),
	}
}

// nonUniformTestDesign exercises multi-way banks (Design D shape, smaller).
func nonUniformTestDesign() config.Design {
	return config.Design{
		ID: "TN", Description: "test non-uniform mesh",
		Topology: "simplified-mesh",
		Params: topology.Params{W: 4, H: 3, CoreX: 1, MemX: 1,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: []bank.Spec{
			{SizeKB: 64, Ways: 1}, {SizeKB: 128, Ways: 2}, {SizeKB: 256, Ways: 4},
		},
		Router: router.DefaultConfig(),
	}
}

type outcome struct {
	hit  bool
	bank int
}

func mustProfile(t *testing.T, name string) trace.Profile {
	t.Helper()
	p, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// genAccesses builds a deterministic access stream on the design's map.
func genAccesses(t *testing.T, d config.Design, n int, seed uint64) []trace.Access {
	t.Helper()
	am := d.AddrMap()
	g := trace.NewSynthetic(mustProfile(t, "gcc"), am, seed)
	return trace.Take(g, n)
}

func TestGoldenEquivalenceAllCombos(t *testing.T) {
	d := testDesign(4, 4)
	for _, policy := range []Policy{Promotion, LRU, FastLRU} {
		for _, mode := range []Mode{Unicast, Multicast} {
			policy, mode := policy, mode
			t.Run(fmt.Sprintf("%v-%v", policy, mode), func(t *testing.T) {
				k := sim.NewKernel()
				s := MustNew(k, d, policy, mode)
				gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 11)
				warm := gen.WarmBlocks(s.Design.Ways())
				s.Warm(warm)
				g := s.NewGoldenFor()
				for set := 0; set < s.AM.Sets; set++ {
					for c := 0; c < s.AM.Columns; c++ {
						g.Warm(c, set, warm[set*s.AM.Columns+c])
					}
				}
				accs := trace.Take(gen, 1500)
				var reqs []*Request
				var want []outcome
				for _, a := range accs {
					col, set, tag := s.AM.ColumnOf(a.Addr), s.AM.SetOf(a.Addr), s.AM.TagOf(a.Addr)
					hit, pos, _, _ := g.Access(col, set, tag)
					want = append(want, outcome{hit, pos})
					reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
				}
				if err := s.Drain(50_000_000); err != nil {
					t.Fatal(err)
				}
				for i, r := range reqs {
					if r.Hit != want[i].hit {
						t.Fatalf("access %d (%#x): sim hit=%v, golden hit=%v",
							i, accs[i].Addr, r.Hit, want[i].hit)
					}
					if r.Hit && r.HitBank != want[i].bank {
						t.Fatalf("access %d: sim bank=%d, golden bank=%d",
							i, r.HitBank, want[i].bank)
					}
				}
				// Final contents must match exactly.
				mismatches := 0
				for set := 0; set < s.AM.Sets && mismatches == 0; set++ {
					for c := 0; c < s.AM.Columns; c++ {
						simC := s.Contents(c, set)
						goldC := g.Contents(c, set)
						for b := range simC {
							if len(simC[b]) != len(goldC[b]) {
								t.Fatalf("col %d set %d bank %d: sim %v vs golden %v",
									c, set, b, simC, goldC)
							}
							for w := range simC[b] {
								if simC[b][w] != goldC[b][w] {
									t.Fatalf("col %d set %d bank %d way %d: sim %v vs golden %v",
										c, set, b, w, simC, goldC)
								}
							}
						}
					}
				}
			})
		}
	}
}

func TestGoldenEquivalenceNonUniform(t *testing.T) {
	d := nonUniformTestDesign()
	for _, policy := range []Policy{Promotion, FastLRU} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			k := sim.NewKernel()
			s := MustNew(k, d, policy, Multicast)
			gen := trace.NewSynthetic(mustProfile(t, "twolf"), s.AM, 5)
			warm := gen.WarmBlocks(s.Design.Ways())
			s.Warm(warm)
			g := s.NewGoldenFor()
			for set := 0; set < s.AM.Sets; set++ {
				for c := 0; c < s.AM.Columns; c++ {
					g.Warm(c, set, warm[set*s.AM.Columns+c])
				}
			}
			accs := trace.Take(gen, 1200)
			var reqs []*Request
			var want []outcome
			for _, a := range accs {
				col, set, tag := s.AM.ColumnOf(a.Addr), s.AM.SetOf(a.Addr), s.AM.TagOf(a.Addr)
				hit, pos, _, _ := g.Access(col, set, tag)
				want = append(want, outcome{hit, pos})
				reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
			}
			if err := s.Drain(50_000_000); err != nil {
				t.Fatal(err)
			}
			for i, r := range reqs {
				if r.Hit != want[i].hit || (r.Hit && r.HitBank != want[i].bank) {
					t.Fatalf("access %d: sim (%v,%d) vs golden (%v,%d)",
						i, r.Hit, r.HitBank, want[i].hit, want[i].bank)
				}
			}
		})
	}
}

func TestFastLRUFunctionallyEqualsLRU(t *testing.T) {
	// Fast-LRU must produce the same hit/miss stream as classic LRU —
	// only the timing differs (Section 3.2).
	d := testDesign(4, 4)
	outcomes := func(policy Policy, mode Mode) []outcome {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, mode)
		gen := trace.NewSynthetic(mustProfile(t, "bzip2"), s.AM, 21)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		var reqs []*Request
		for _, a := range trace.Take(gen, 1500) {
			reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
		}
		if err := s.Drain(50_000_000); err != nil {
			t.Fatal(err)
		}
		out := make([]outcome, len(reqs))
		for i, r := range reqs {
			out[i] = outcome{r.Hit, r.HitBank}
		}
		return out
	}
	lru := outcomes(LRU, Unicast)
	fastU := outcomes(FastLRU, Unicast)
	fastM := outcomes(FastLRU, Multicast)
	for i := range lru {
		if lru[i] != fastU[i] {
			t.Fatalf("access %d: LRU %+v vs unicast Fast-LRU %+v", i, lru[i], fastU[i])
		}
		if lru[i] != fastM[i] {
			t.Fatalf("access %d: LRU %+v vs multicast Fast-LRU %+v", i, lru[i], fastM[i])
		}
	}
}

func TestSingleHitMRULatency(t *testing.T) {
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	// Place one block at the MRU bank of column 2.
	addr := s.AM.Compose(7, 9, 2)
	s.Bank(2, 0).InsertLRU(9, bank.Block{Tag: 7})
	r := s.Issue(addr, false, nil)
	if err := s.Drain(100000); err != nil {
		t.Fatal(err)
	}
	if !r.Hit || r.HitBank != 0 {
		t.Fatalf("want MRU hit, got hit=%v bank=%d", r.Hit, r.HitBank)
	}
	// Zero-load: request 1 hop + eject, 3-cycle bank, reply 5 flits.
	if lat := r.Latency(); lat < 5 || lat > 20 {
		t.Fatalf("MRU hit latency = %d, want a handful of cycles", lat)
	}
	if r.Breakdown.Bank != 3 {
		t.Fatalf("bank cycles = %d, want 3 (64KB tag+replacement)", r.Breakdown.Bank)
	}
	if r.Breakdown.Memory != 0 {
		t.Fatal("MRU hit must not touch memory")
	}
}

func TestMissGoesToMemoryAndFills(t *testing.T) {
	for _, mode := range []Mode{Unicast, Multicast} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			d := testDesign(4, 4)
			k := sim.NewKernel()
			s := MustNew(k, d, FastLRU, mode)
			gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 31)
			s.Warm(gen.WarmBlocks(s.Design.Ways()))
			addr := s.AM.Compose(999999, 5, 1) // never-seen tag
			r := s.Issue(addr, false, nil)
			if err := s.Drain(1000000); err != nil {
				t.Fatal(err)
			}
			if r.Hit {
				t.Fatal("expected a miss")
			}
			if s.Memory.Stats().Reads != 1 {
				t.Fatalf("memory reads = %d, want 1", s.Memory.Stats().Reads)
			}
			if r.Breakdown.Memory < 162 {
				t.Fatalf("memory cycles = %d, want >= 162", r.Breakdown.Memory)
			}
			// The block must now be resident at the MRU bank.
			if _, ok := s.Bank(1, 0).Lookup(5, 999999); !ok {
				t.Fatal("fill did not land in the MRU bank")
			}
			// And a second access must hit at the MRU bank.
			r2 := s.Issue(addr, false, nil)
			if err := s.Drain(1000000); err != nil {
				t.Fatal(err)
			}
			if !r2.Hit || r2.HitBank != 0 {
				t.Fatalf("refetch: hit=%v bank=%d, want MRU hit", r2.Hit, r2.HitBank)
			}
		})
	}
}

func TestDirtyVictimWritesBack(t *testing.T) {
	d := testDesign(4, 2) // 2-way columns: quick to evict
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	set, col := 3, 1
	// Write to a block (makes it dirty), then push it out with misses.
	wa := s.AM.Compose(50, set, col)
	s.Bank(col, 0).InsertLRU(set, bank.Block{Tag: 50})
	s.Bank(col, 1).InsertLRU(set, bank.Block{Tag: 51})
	s.Issue(wa, true, nil)
	if err := s.Drain(1000000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s.Issue(s.AM.Compose(uint64(100+i), set, col), false, nil)
		if err := s.Drain(1000000); err != nil {
			t.Fatal(err)
		}
	}
	if wb := s.Memory.Stats().WriteBacks; wb != 1 {
		t.Fatalf("writebacks = %d, want 1 (the dirty block)", wb)
	}
}

func TestSetSerializationAndColumnWindow(t *testing.T) {
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 1)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))
	warm := gen.WarmBlocks(2)
	// Two requests to the same (column, set) must serialize: replacement
	// chains are stateful. A request to another column overlaps fully.
	tags := warm[5*s.AM.Columns+2] // set 5, column 2: MRU and way-1 tags
	r1 := s.Issue(s.AM.Compose(tags[0], 5, 2), false, nil)
	r2 := s.Issue(s.AM.Compose(tags[1], 5, 2), false, nil)
	r3 := s.Issue(s.AM.Compose(warm[5*s.AM.Columns+3][0], 5, 3), false, nil)
	if err := s.Drain(1000000); err != nil {
		t.Fatal(err)
	}
	if r2.DataAt <= r1.DataAt {
		t.Fatalf("same-set requests did not serialize: %d vs %d", r2.DataAt, r1.DataAt)
	}
	if r3.DataAt >= r2.DataAt {
		t.Fatalf("cross-column requests did not overlap: r3 at %d, r2 at %d", r3.DataAt, r2.DataAt)
	}
	// Different sets of one column pipeline within the column window.
	k2 := sim.NewKernel()
	s2 := MustNew(k2, d, FastLRU, Multicast)
	gen2 := trace.NewSynthetic(mustProfile(t, "gcc"), s2.AM, 1)
	s2.Warm(gen2.WarmBlocks(s2.Design.Ways()))
	w2 := gen2.WarmBlocks(1)
	q1 := s2.Issue(s2.AM.Compose(w2[5*s2.AM.Columns+2][0], 5, 2), false, nil)
	q2 := s2.Issue(s2.AM.Compose(w2[6*s2.AM.Columns+2][0], 6, 2), false, nil)
	if err := s2.Drain(1000000); err != nil {
		t.Fatal(err)
	}
	if q2.DataAt >= q1.DataAt+q1.Latency() {
		t.Fatalf("different-set requests should pipeline: q1 [%d,%d], q2 at %d",
			q1.Issued, q1.DataAt, q2.DataAt)
	}
}

// pacer issues accesses at a fixed cycle interval, modeling a loaded but
// unsaturated core (tests that assert latency orderings need pacing:
// dumping the whole trace at cycle 0 measures drain throughput instead).
type pacer struct {
	k    *sim.Kernel
	kid  int
	sys  *System
	accs []trace.Access
	i    int
	gap  int64
}

func (p *pacer) Tick(now int64) bool {
	if p.i >= len(p.accs) {
		return false
	}
	a := p.accs[p.i]
	p.i++
	p.sys.Issue(a.Addr, a.Write, nil)
	if p.i < len(p.accs) {
		p.k.WakeAt(now+p.gap, p.kid)
	}
	return false
}

func runPaced(t *testing.T, s *System, accs []trace.Access, gap int64) {
	t.Helper()
	p := &pacer{k: s.K, sys: s, accs: accs, gap: gap}
	p.kid = s.K.Register(p)
	s.K.Activate(p.kid)
	if err := s.Drain(500_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestFastLRUShortensColumnOccupancy(t *testing.T) {
	// Section 3.2's structural claim: Fast-LRU overlaps replacement with
	// the tag-match, so the bank set frees far earlier than under
	// classic LRU (21 vs 12 hops in the paper's Figure 2 example). This
	// holds at any load.
	d := testDesign(8, 8)
	occ := func(policy Policy, mode Mode) float64 {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, mode)
		gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 77)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		runPaced(t, s, trace.Take(gen, 1000), 25)
		return s.Lat.AvgOccupancy()
	}
	uLRU := occ(LRU, Unicast)
	uFast := occ(FastLRU, Unicast)
	mFast := occ(FastLRU, Multicast)
	t.Logf("occupancy: unicast LRU=%.1f unicast fastLRU=%.1f multicast fastLRU=%.1f",
		uLRU, uFast, mFast)
	if uFast >= uLRU {
		t.Errorf("unicast Fast-LRU occupancy (%.1f) must beat unicast LRU (%.1f)", uFast, uLRU)
	}
	if mFast >= uLRU {
		t.Errorf("multicast Fast-LRU occupancy (%.1f) must beat unicast LRU (%.1f)", mFast, uLRU)
	}
}

func TestFastLRUWinsUnderLoad(t *testing.T) {
	// Under heavy load the shorter column occupancy turns into lower
	// access latency: classic LRU requests queue behind long chains.
	d := testDesign(8, 8)
	avg := func(policy Policy, mode Mode) float64 {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, mode)
		gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 77)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		runPaced(t, s, trace.Take(gen, 1200), 9)
		return s.Lat.Avg()
	}
	uLRU := avg(LRU, Unicast)
	uFast := avg(FastLRU, Unicast)
	t.Logf("loaded avg latency: unicast LRU=%.1f unicast fastLRU=%.1f", uLRU, uFast)
	if uFast >= uLRU {
		t.Errorf("unicast Fast-LRU (%.1f) must beat unicast LRU (%.1f) under load", uFast, uLRU)
	}
}

func TestFastLRUHalvesBankAccesses(t *testing.T) {
	// Section 3.2: Fast-LRU "almost halves the number of bank accesses"
	// versus classic LRU (tag-match and replacement share one access).
	d := testDesign(4, 8)
	accesses := func(policy Policy) uint64 {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, Unicast)
		gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 13)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		for _, a := range trace.Take(gen, 800) {
			s.Issue(a.Addr, a.Write, nil)
		}
		if err := s.Drain(100_000_000); err != nil {
			t.Fatal(err)
		}
		return s.BankAccesses()
	}
	lru := accesses(LRU)
	fast := accesses(FastLRU)
	ratio := float64(fast) / float64(lru)
	t.Logf("bank accesses: LRU=%d fastLRU=%d ratio=%.2f", lru, fast, ratio)
	if ratio > 0.75 {
		t.Errorf("Fast-LRU should come close to halving bank accesses; ratio = %.2f", ratio)
	}
}

func TestLRUConcentratesHitsAtMRU(t *testing.T) {
	// Section 6.1: LRU shows a 5-19% hit increase at the MRU banks over
	// Promotion.
	d := testDesign(4, 8)
	mruShare := func(policy Policy) float64 {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, Multicast)
		gen := trace.NewSynthetic(mustProfile(t, "twolf"), s.AM, 3)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		for _, a := range trace.Take(gen, 2000) {
			s.Issue(a.Addr, a.Write, nil)
		}
		if err := s.Drain(100_000_000); err != nil {
			t.Fatal(err)
		}
		return s.Lat.HitWayShare(0)
	}
	lru := mruShare(FastLRU)
	promo := mruShare(Promotion)
	t.Logf("MRU hit share: LRU=%.3f promotion=%.3f", lru, promo)
	if lru <= promo {
		t.Errorf("LRU MRU-hit share (%.3f) must exceed Promotion's (%.3f)", lru, promo)
	}
}

func TestBlockConservation(t *testing.T) {
	// After any run on a warmed cache, every set still holds exactly
	// `ways` distinct blocks: chains never lose or duplicate one.
	d := testDesign(4, 4)
	for _, policy := range []Policy{Promotion, LRU, FastLRU} {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, Multicast)
		gen := trace.NewSynthetic(mustProfile(t, "mcf"), s.AM, 17)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		for _, a := range trace.Take(gen, 1000) {
			s.Issue(a.Addr, a.Write, nil)
		}
		if err := s.Drain(100_000_000); err != nil {
			t.Fatal(err)
		}
		for set := 0; set < s.AM.Sets; set += 97 {
			for c := 0; c < s.AM.Columns; c++ {
				seen := map[uint64]bool{}
				total := 0
				for _, bankTags := range s.Contents(c, set) {
					for _, tag := range bankTags {
						if seen[tag] {
							t.Fatalf("%v: duplicate tag %d in col %d set %d", policy, tag, c, set)
						}
						seen[tag] = true
						total++
					}
				}
				if total != s.Design.Ways() {
					t.Fatalf("%v: col %d set %d holds %d blocks, want %d",
						policy, c, set, total, s.Design.Ways())
				}
			}
		}
	}
}

func TestBreakdownConsistency(t *testing.T) {
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 9)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))
	var reqs []*Request
	for _, a := range trace.Take(gen, 400) {
		reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
	}
	if err := s.Drain(100_000_000); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if got := r.Breakdown.Bank + r.Breakdown.Network + r.Breakdown.Memory; got != r.Latency() {
			t.Fatalf("access %d: breakdown total %d != latency %d", i, got, r.Latency())
		}
		if r.Breakdown.Bank <= 0 {
			t.Fatalf("access %d: no bank cycles", i)
		}
		if !r.Hit && r.Breakdown.Memory < 162 {
			t.Fatalf("access %d: miss with %d memory cycles", i, r.Breakdown.Memory)
		}
		if r.Hit && r.Breakdown.Memory != 0 {
			t.Fatalf("access %d: hit with memory cycles", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	d := testDesign(4, 4)
	run := func() (float64, uint64) {
		k := sim.NewKernel()
		s := MustNew(k, d, FastLRU, Multicast)
		gen := trace.NewSynthetic(mustProfile(t, "vpr"), s.AM, 23)
		s.Warm(gen.WarmBlocks(s.Design.Ways()))
		for _, a := range trace.Take(gen, 600) {
			s.Issue(a.Addr, a.Write, nil)
		}
		if err := s.Drain(100_000_000); err != nil {
			t.Fatal(err)
		}
		return s.Lat.Avg(), s.Net.Stats().Router.FlitsRouted
	}
	a1, f1 := run()
	a2, f2 := run()
	if a1 != a2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", a1, f1, a2, f2)
	}
}

func TestWorksOnAllSixDesigns(t *testing.T) {
	// Smoke: multicast Fast-LRU completes correctly on every Table 3
	// design, including halos and non-uniform banks.
	for _, d := range config.Designs() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			k := sim.NewKernel()
			s := MustNew(k, d, FastLRU, Multicast)
			gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 2)
			s.Warm(gen.WarmBlocks(s.Design.Ways()))
			var reqs []*Request
			for _, a := range trace.Take(gen, 300) {
				reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
			}
			if err := s.Drain(100_000_000); err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				if r.DataAt == 0 {
					t.Fatal("request never completed")
				}
			}
			if s.Lat.Count != 300 {
				t.Fatalf("recorded %d accesses, want 300", s.Lat.Count)
			}
		})
	}
}

func TestParsePolicyAndMode(t *testing.T) {
	if p, err := ParsePolicy("fastlru"); err != nil || p != FastLRU {
		t.Fatal("ParsePolicy failed")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if m, err := ParseMode("multicast"); err != nil || m != Multicast {
		t.Fatal("ParseMode failed")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("expected error")
	}

	// The catalogue in registration order: the built-ins' ids equal the
	// package constants, the registry additions follow. A miss lists it.
	names := PolicyNames()
	if want := []string{"promotion", "LRU", "fastLRU", "directory", "static"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	for id, want := range []Policy{Promotion, LRU, FastLRU, Directory, Static} {
		if Policy(id) != want {
			t.Fatalf("policy %q registered as id %d, but its constant is %d", names[id], id, want)
		}
	}
	if _, err := PolicyByName("mru"); err == nil ||
		err.Error() != `cache: unknown policy "mru" (registered: promotion, LRU, fastLRU, directory, static)` {
		t.Fatalf("unknown policy error = %v", err)
	}
	// Every registered policy — built-ins and registry additions alike —
	// round-trips through String and ParsePolicy, so CLI flags, JSON
	// reports, and error messages always agree on the registered name.
	for _, name := range names {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Valid() {
			t.Fatalf("policy %q resolves to invalid id %d", name, p)
		}
		if p.String() != name {
			t.Fatalf("policy %q prints as %q", name, p.String())
		}
		rt, err := ParsePolicy(p.String())
		if err != nil || rt != p {
			t.Fatalf("policy %q does not round-trip: got %v, %v", name, rt, err)
		}
		// Parsing is case- and hyphen-insensitive ("Fast-LRU" == "fastlru").
		loose, err := ParsePolicy(strings.ToUpper(name))
		if err != nil || loose != p {
			t.Fatalf("policy %q not parsed case-insensitively: %v, %v", name, loose, err)
		}
	}
	for _, m := range []Mode{Unicast, Multicast} {
		rt, err := ParseMode(m.String())
		if err != nil || rt != m {
			t.Fatalf("mode %v does not round-trip: got %v, %v", m, rt, err)
		}
	}
}

// TestWarmCloneMatchesWarm: every core.Run warms by cloning a shared
// image, so the clone must leave the banks — and, under the directory
// policy, the ownership report seeded from them — exactly as the
// insertion replay does, on uniform and multi-way bank stacks.
func TestWarmCloneMatchesWarm(t *testing.T) {
	for _, d := range []config.Design{testDesign(4, 4), nonUniformTestDesign()} {
		warm := trace.NewSynthetic(mustProfile(t, "gcc"), d.AddrMap(), 1).WarmBlocks(d.Ways())
		replayed := MustNew(sim.NewKernel(), d, Directory, Multicast)
		replayed.Warm(warm)
		cloned := MustNew(sim.NewKernel(), d, Directory, Multicast)
		cloned.WarmClone(BuildWarmImage(d, warm))
		for col := 0; col < d.AddrMap().Columns; col++ {
			for set := 0; set < d.AddrMap().Sets; set++ {
				if got, want := cloned.Contents(col, set), replayed.Contents(col, set); !reflect.DeepEqual(got, want) {
					t.Fatalf("design %s column %d set %d: clone holds %v, replay %v", d.ID, col, set, got, want)
				}
			}
		}
		if got, want := cloned.Dir.Report(), replayed.Dir.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("design %s: directory seeded from the clone reports %+v, from the replay %+v", d.ID, got, want)
		}
	}
}
