package cmp

import (
	"strings"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

// fabricOn builds an n-core fabric over a fresh system of the named
// design.
func fabricOn(t *testing.T, designID string, n int) *Fabric {
	t.Helper()
	d, err := config.DesignByID(designID)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cache.New(sim.NewKernel(), d, cache.FastLRU, cache.Multicast)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Attach(cs, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestHomeAssignmentNearest(t *testing.T) {
	f := fabricOn(t, "A", 4)
	// Cores sit at x = 2, 6, 10, 14; columns split into four runs.
	for col := 0; col < 16; col++ {
		got := f.home[col]
		if got < 0 || got > 3 {
			t.Fatalf("home(%d) = %d", col, got)
		}
	}
	if f.home[0] != 0 || f.home[15] != 3 {
		t.Fatalf("edge homes wrong: %d %d", f.home[0], f.home[15])
	}
	for col := 1; col < 16; col++ {
		if f.home[col] < f.home[col-1] {
			t.Fatal("home assignment must be monotone along the row")
		}
	}
}

// TestHomeAssignmentHier: on the hierarchical design the home map works
// off global columns exactly as on a flat mesh — bridges host no banks
// and never own columns.
func TestHomeAssignmentHier(t *testing.T) {
	f := fabricOn(t, "H2", 4)
	for col := 1; col < 16; col++ {
		if f.home[col] < f.home[col-1] {
			t.Fatal("home assignment must be monotone along the row")
		}
	}
	for i := 0; i < 4; i++ {
		node := f.nodes[i]
		if f.Sys.Topo.Nodes[node].Y != 0 {
			t.Fatalf("controller %d not on the mesh's top row (node %d)", i, node)
		}
	}
}

func TestOffsetAddrDisjoint(t *testing.T) {
	f := fabricOn(t, "A", 2)
	am := f.Sys.AM
	addr := am.Compose(42, 13, 5)
	a0 := OffsetAddr(am, addr, 0)
	a1 := OffsetAddr(am, addr, 1)
	if a0 != addr {
		t.Fatal("core 0's tag range must be the identity (single-core compatibility)")
	}
	if a0 == a1 {
		t.Fatal("cores must get disjoint tag ranges")
	}
	if am.SetOf(a0) != am.SetOf(a1) || am.ColumnOf(a0) != am.ColumnOf(a1) {
		t.Fatal("offset must preserve set and column")
	}
	if am.TagOf(a0) == am.TagOf(a1) {
		t.Fatal("tags must differ")
	}
}

func TestHaloRejected(t *testing.T) {
	// Radial designs have a single hub: CMP must refuse them with a
	// descriptive error (not a panic) so batch sweeps can skip-and-report.
	d, _ := config.DesignByID("E")
	cs, err := cache.New(sim.NewKernel(), d, cache.FastLRU, cache.Multicast)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(cs, 2); err == nil {
		t.Fatal("halo CMP must be rejected")
	} else if !strings.Contains(err.Error(), "radial") {
		t.Fatalf("error should explain the radial rejection, got: %v", err)
	}
}

func TestBadCoreCounts(t *testing.T) {
	d, _ := config.DesignByID("A")
	cs, err := cache.New(sim.NewKernel(), d, cache.FastLRU, cache.Multicast)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, 17} {
		if _, err := Attach(cs, n); err == nil {
			t.Errorf("core count %d must be rejected", n)
		}
	}
}

func TestWarmSplitsWays(t *testing.T) {
	f := fabricOn(t, "A", 4)
	prof, err := trace.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	warm := trace.NewSynthetic(prof, f.Sys.AM, 1).WarmBlocks(16)
	f.Sys.Warm(MergeWarm(f.Sys.Design.Ways(), warm, 4))
	// Every set holds 16 blocks, 4 from each core's tag range.
	counts := map[uint64]int{}
	for _, bankTags := range f.Sys.Contents(3, 7) {
		for _, tag := range bankTags {
			counts[tag/OwnerStride]++
		}
	}
	total := 0
	for c := 0; c < 4; c++ {
		if counts[uint64(c)] != 4 {
			t.Fatalf("core %d holds %d ways of set, want 4 (%v)", c, counts[uint64(c)], counts)
		}
		total += counts[uint64(c)]
	}
	if total != 16 {
		t.Fatalf("set holds %d blocks, want 16", total)
	}
}

// TestMergeWarmRowsIndependent: the merged rows are stripes of one
// backing array; each must stay inside its own stripe, including rows
// the cores could not fill, so an append to row i never lands in row
// i+1.
func TestMergeWarmRowsIndependent(t *testing.T) {
	const ways = 4
	// Two cores; row 0 has a single block, so it merges short (2 of 4
	// ways) and has spare room in its stripe.
	warm := [][]uint64{{1}, {3, 4}, {5, 6}, {7, 8}}
	merged := MergeWarm(ways, warm, 2)
	want := [][]uint64{
		{1, 1 + OwnerStride},
		{3, 3 + OwnerStride, 4, 4 + OwnerStride},
		{5, 5 + OwnerStride, 6, 6 + OwnerStride},
		{7, 7 + OwnerStride, 8, 8 + OwnerStride},
	}
	for i, row := range merged {
		if len(row) != len(want[i]) || cap(row) > ways {
			t.Fatalf("row %d: len %d cap %d, want len %d and cap <= %d", i, len(row), cap(row), len(want[i]), ways)
		}
		for j, tag := range row {
			if tag != want[i][j] {
				t.Fatalf("row %d = %v, want %v", i, row, want[i])
			}
		}
	}
	// Grow the short row past its stripe: row 1 must be left alone.
	merged[0] = append(merged[0], 0xdead, 0xbeef)
	for j, tag := range merged[1] {
		if tag != want[1][j] {
			t.Fatalf("appending to row 0 changed row 1 to %v", merged[1])
		}
	}
}
