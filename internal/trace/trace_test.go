package trace

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func am16() AddrMap { return AddrMap{Columns: 16, Sets: 1024} }

func TestProfilesMatchTable2(t *testing.T) {
	ps := Profiles()
	if len(ps) != 12 {
		t.Fatalf("profiles = %d, want 12", len(ps))
	}
	// Spot-check the Table 2 rows used most in the text.
	art, err := ProfileByName("art")
	if err != nil {
		t.Fatal(err)
	}
	if art.AccPerInstr != 0.155 || art.PerfectIPC != 0.40 || !art.FP {
		t.Fatalf("art profile wrong: %+v", art)
	}
	mcf, _ := ProfileByName("mcf")
	if mcf.AccPerInstr != 0.181 || mcf.InstrTotal != 250_000_000 || mcf.FP {
		t.Fatalf("mcf profile wrong: %+v", mcf)
	}
	// Consistency: reads+writes per instruction approximately matches
	// the printed accesses-per-instruction column.
	for _, p := range ps {
		derived := (p.ReadsM + p.WritesM) * 1e6 / float64(p.InstrTotal)
		if math.Abs(derived-p.AccPerInstr)/p.AccPerInstr > 0.12 {
			t.Errorf("%s: derived acc/instr %.4f vs table %.4f", p.Name, derived, p.AccPerInstr)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	_, err := ProfileByName("doom")
	if err == nil || !strings.HasPrefix(err.Error(), `trace: unknown benchmark "doom" (known: [applu apsi art `) {
		t.Fatalf("unknown benchmark error = %v, want it to name the catalogue", err)
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if names[0] != "applu" || names[11] != "vpr" {
		t.Fatalf("order wrong: %v", names)
	}
}

func TestAddrMapRoundTrip(t *testing.T) {
	am := am16()
	if err := quick.Check(func(tag uint64, s, c uint16) bool {
		tag &= 0xfff
		set := int(s) % am.Sets
		col := int(c) % am.Columns
		addr := am.Compose(tag, set, col)
		return am.TagOf(addr) == tag && am.SetOf(addr) == set &&
			am.ColumnOf(addr) == col && addr%64 == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrMapPaperLayout(t *testing.T) {
	// 32-bit address: tag(12) index(10) bank-column(4) offset(6).
	am := am16()
	addr := am.Compose(0xABC, 0x3FF, 0xF)
	if addr != 0xABC<<20|0x3FF<<10|0xF<<6 {
		t.Fatalf("compose = %#x", addr)
	}
}

func TestAddrMapNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddrMap{Columns: 12, Sets: 1024}.SetOf(0)
}

func TestSyntheticDeterminism(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a := Take(NewSynthetic(p, am16(), 42), 2000)
	b := Take(NewSynthetic(p, am16(), 42), 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same stream")
		}
	}
	c := Take(NewSynthetic(p, am16(), 43), 2000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds gave identical stream")
	}
}

// TestWarmBlocksRowsIndependent: the rows are windows of one backing
// array, so each must be capped at its own length — an append to row i
// has to reallocate, not write into row i+1 — and the table must not
// alias the generator's reuse stacks, which Next keeps reordering.
func TestWarmBlocksRowsIndependent(t *testing.T) {
	p, _ := ProfileByName("gcc")
	am := AddrMap{Columns: 4, Sets: 8}
	g := NewSynthetic(p, am, 1)
	for _, ways := range []int{1, 16, maxStack + 5} {
		warm := g.WarmBlocks(ways)
		want := min(ways, maxStack)
		for i, row := range warm {
			if len(row) != want || cap(row) != want {
				t.Fatalf("ways %d row %d: len %d cap %d, want both %d", ways, i, len(row), cap(row), want)
			}
			if row[0] != uint64(i*maxStack+1) {
				t.Fatalf("ways %d row %d starts with tag %d, want %d", ways, i, row[0], i*maxStack+1)
			}
		}
		next := warm[1][0]
		warm[0] = append(warm[0], 0xdead)
		if warm[1][0] != next {
			t.Fatalf("ways %d: appending to row 0 overwrote row 1", ways)
		}
	}
	warm := g.WarmBlocks(16)
	first := warm[0][0]
	Take(g, 500)
	if warm[0][0] != first {
		t.Fatal("the warm table aliases the generator's live reuse stacks")
	}
}

func TestSyntheticWriteFraction(t *testing.T) {
	p, _ := ProfileByName("lucas") // writes/(r+w) = 13.226/32.732 = 0.404
	acc := Take(NewSynthetic(p, am16(), 1), 20000)
	writes := 0
	for _, a := range acc {
		if a.Write {
			writes++
		}
	}
	got := float64(writes) / float64(len(acc))
	if math.Abs(got-p.WriteFrac()) > 0.02 {
		t.Fatalf("write fraction = %.3f, want ~%.3f", got, p.WriteFrac())
	}
}

func TestSyntheticGapMatchesAccessRate(t *testing.T) {
	for _, name := range []string{"mesa", "mcf"} {
		p, _ := ProfileByName(name)
		acc := Take(NewSynthetic(p, am16(), 7), 20000)
		var total int64
		for _, a := range acc {
			total += a.Gap
		}
		gotRate := float64(len(acc)) / float64(total)
		if math.Abs(gotRate-p.AccPerInstr)/p.AccPerInstr > 0.08 {
			t.Errorf("%s: accesses/instr = %.4f, want ~%.4f", name, gotRate, p.AccPerInstr)
		}
	}
}

// reuseStats measures, with a reference 16-way LRU per set warmed from the
// generator's initial WarmBlocks, the hit rate and MRU-way concentration
// of the next n accesses. Call on a fresh generator.
func reuseStats(g *Synthetic, n int, am AddrMap) (hitRate, mruShare float64) {
	type set struct{ stack []uint64 }
	sets := make([]set, am.Columns*am.Sets)
	for i, warm := range g.WarmBlocks(16) {
		sets[i].stack = append(sets[i].stack, warm...)
	}
	acc := Take(g, n)
	hits, mru := 0, 0
	for _, a := range acc {
		s := &sets[am.SetOf(a.Addr)*am.Columns+am.ColumnOf(a.Addr)]
		tag := am.TagOf(a.Addr)
		found := -1
		for i, t := range s.stack {
			if t == tag {
				found = i
				break
			}
		}
		if found >= 0 {
			hits++
			if found == 0 {
				mru++
			}
			copy(s.stack[1:found+1], s.stack[:found])
			s.stack[0] = tag
		} else {
			if len(s.stack) < 16 {
				s.stack = append(s.stack, 0)
			}
			copy(s.stack[1:], s.stack)
			s.stack[0] = tag
		}
	}
	if hits == 0 {
		return 0, 0
	}
	return float64(hits) / float64(len(acc)), float64(mru) / float64(hits)
}

func TestSyntheticLocalityShapes(t *testing.T) {
	am := am16()
	// art: essentially no misses beyond compulsory (paper Section 6,
	// footnote 5). applu/lucas: low hit rates.
	art, _ := ProfileByName("art")
	hr, mru := reuseStats(NewSynthetic(art, am, 3), 60000, am)
	if hr < 0.95 {
		t.Errorf("art hit rate = %.3f, want > 0.95", hr)
	}
	if mru < 0.5 {
		t.Errorf("art MRU share = %.3f, want strong MRU concentration", mru)
	}
	applu, _ := ProfileByName("applu")
	hrA, _ := reuseStats(NewSynthetic(applu, am, 3), 60000, am)
	if hrA > 1-applu.MissRate+0.03 || hrA < 1-applu.MissRate-0.03 {
		t.Errorf("applu hit rate = %.3f, want ~%.2f (the profile's target)", hrA, 1-applu.MissRate)
	}
	if hrA >= hr-0.1 {
		t.Error("applu must have a clearly lower hit rate than art")
	}
}

func TestSetsPerColumnBoundsHotSets(t *testing.T) {
	am := am16()
	p, _ := ProfileByName("gcc")
	g := NewSynthetic(p, am, 4)
	g.SetsPerColumn = 4
	seen := map[int]bool{}
	for _, a := range Take(g, 5000) {
		set := am.SetOf(a.Addr)
		if set >= 4 {
			t.Fatalf("access touched set %d beyond the hot pool", set)
		}
		seen[set] = true
	}
	if len(seen) != 4 {
		t.Fatalf("hot pool used %d sets, want 4", len(seen))
	}
}

func TestSetsPerColumnClampsToSets(t *testing.T) {
	am := AddrMap{Columns: 4, Sets: 8}
	p, _ := ProfileByName("gcc")
	g := NewSynthetic(p, am, 4) // default 16 > 8 sets: must clamp
	for _, a := range Take(g, 500) {
		if s := am.SetOf(a.Addr); s >= 8 {
			t.Fatalf("set %d out of range", s)
		}
	}
}

// denseSynthetic is the generator as it was before it kept only the hot
// reuse stacks: every (column, set) stack materialised up front. It is
// the reference the sparse Synthetic is compared against; the embedded
// Synthetic supplies only the RNG, the CDF and the gap draws.
type denseSynthetic struct {
	*Synthetic
	stacks  [][]uint64
	nextTag uint64
}

func newDense(p Profile, am AddrMap, seed uint64) *denseSynthetic {
	d := &denseSynthetic{Synthetic: NewSynthetic(p, am, seed), nextTag: 1}
	d.stacks = make([][]uint64, am.Columns*am.Sets)
	for i := range d.stacks {
		d.stacks[i] = make([]uint64, maxStack)
		for j := range d.stacks[i] {
			d.stacks[i][j] = d.nextTag
			d.nextTag++
		}
	}
	return d
}

func (d *denseSynthetic) WarmBlocks(ways int) [][]uint64 {
	out := make([][]uint64, len(d.stacks))
	for i, st := range d.stacks {
		out[i] = slices.Clone(st[:min(ways, maxStack)])
	}
	return out
}

func (d *denseSynthetic) Next() Access {
	g := d.Synthetic
	col := g.rng.Intn(g.am.Columns)
	n := g.SetsPerColumn
	if n < 1 || n > g.am.Sets {
		n = g.am.Sets
	}
	set := g.rng.Intn(n)
	s := d.stacks[set*g.am.Columns+col]
	var tag uint64
	switch {
	case !g.rng.Bool(g.prof.MissRate):
		tag = s[g.sampleDepth()-1]
	case g.rng.Bool(0.5):
		tag = d.nextTag
		d.nextTag++
	default:
		tag = s[hitDepth+g.rng.Intn(maxStack-hitDepth)]
	}
	pos := slices.Index(s, tag)
	if pos < 0 {
		pos = len(s) - 1
	}
	copy(s[1:pos+1], s[:pos])
	s[0] = tag
	gap := g.geometricGap()
	return Access{Addr: g.am.Compose(tag, set, col), Write: g.rng.Bool(g.prof.WriteFrac()), Gap: gap}
}

// TestSparseMatchesDenseGenerator: keeping only the hot stacks changes
// neither the access stream nor the warm table, before any Next or after
// the hot stacks have been reordered, whenever SetsPerColumn is set.
func TestSparseMatchesDenseGenerator(t *testing.T) {
	sameTable := func(a, b [][]uint64) bool { return slices.EqualFunc(a, b, slices.Equal[[]uint64]) }
	for _, am := range []AddrMap{am16(), {Columns: 16, Sets: 16}, {Columns: 4, Sets: 8}} {
		for _, spc := range []int{0, 4, 5000} { // 0: leave the default
			for _, bench := range []string{"gcc", "lucas", "art"} {
				p, _ := ProfileByName(bench)
				for _, seed := range []uint64{1, 42, 1 << 40} {
					sparse, dense := NewSynthetic(p, am, seed), newDense(p, am, seed)
					check := func(when string) {
						t.Helper()
						for _, ways := range []int{16, 64} {
							if !sameTable(sparse.WarmBlocks(ways), dense.WarmBlocks(ways)) {
								t.Fatalf("%+v spc=%d %s seed %d: WarmBlocks(%d) differs %s", am, spc, bench, seed, ways, when)
							}
						}
					}
					check("before any Next")
					if spc != 0 {
						sparse.SetsPerColumn, dense.SetsPerColumn = spc, spc
					}
					for i := 0; i < 5000; i++ {
						if a, b := sparse.Next(), dense.Next(); a != b {
							t.Fatalf("%+v spc=%d %s seed %d: access %d is %+v, dense reference gives %+v", am, spc, bench, seed, i, a, b)
						}
						if i == 999 {
							check("after 1000 accesses")
						}
					}
				}
			}
		}
	}
}

// TestWarmTableIgnoresSeedAndProfile pins the property the process-wide
// warm state in internal/core rests on: the warm table is a function of
// the address geometry alone.
func TestWarmTableIgnoresSeedAndProfile(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	lucas, _ := ProfileByName("lucas")
	a := NewSynthetic(gcc, am16(), 1).WarmBlocks(16)
	b := NewSynthetic(lucas, am16(), 977).WarmBlocks(16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("warm tables of two seeds and profiles differ")
	}
}

// TestSyntheticAllocatesHotStacksOnly: a generator on the paper's
// geometry costs its 256 hot stacks (98 KB, at the first Next), not the
// 6.3 MB of all 16K.
func TestSyntheticAllocatesHotStacksOnly(t *testing.T) {
	p, _ := ProfileByName("gcc")
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		NewSynthetic(p, am16(), uint64(i)).Next()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 200<<10 {
		t.Fatalf("NewSynthetic + first Next allocate %d bytes, want < 200 KB", per)
	}
}
