package topology

import (
	"reflect"
	"testing"
)

// TestRegistryNames pins the family catalogue (Names is sorted).
func TestRegistryNames(t *testing.T) {
	want := []string{"cmesh", "halo", "hier", "mesh", "minimal-mesh", "ring", "simplified-mesh"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := Build("torus", Params{W: 4, H: 4})
	if err == nil {
		t.Fatal("expected error for unregistered topology name")
	}
	want := `topology: unknown family "torus" (registered: [cmesh halo hier mesh minimal-mesh ring simplified-mesh])`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

func TestRingStructure(t *testing.T) {
	r, err := Build("ring", Params{W: 8, H: 1, CoreX: 0, MemX: 4, HorizDelay: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 8 || r.NumBanks() != 8 {
		t.Fatalf("nodes=%d banks=%d, want 8/8", r.NumNodes(), r.NumBanks())
	}
	if r.Columns() != 8 || r.Ways() != 1 {
		t.Fatalf("columns=%d ways=%d, want 8/1", r.Columns(), r.Ways())
	}
	// A cycle of bidirectional links: 2 per node, east wraps around.
	if got := r.CountLinks(); got != 16 {
		t.Fatalf("links = %d, want 16", got)
	}
	for i := 0; i < 8; i++ {
		l, ok := r.Link(NodeID(i), PortEast)
		if !ok || l.To != NodeID((i+1)%8) || l.Delay != 2 {
			t.Fatalf("node %d east link = %+v ok=%v, want to %d delay 2", i, l, ok, (i+1)%8)
		}
		back, ok := r.Link(NodeID((i+1)%8), PortWest)
		if !ok || back.To != NodeID(i) {
			t.Fatalf("node %d west link broken", (i+1)%8)
		}
		if r.BanksAt(NodeID(i)) != 1 {
			t.Fatalf("node %d hosts %d banks, want 1", i, r.BanksAt(NodeID(i)))
		}
	}
	if r.Core != 0 || r.Mem != 4 {
		t.Fatalf("core=%d mem=%d, want 0/4", r.Core, r.Mem)
	}
	// A ring is a complete W x 1 grid of routers: NodeAt stays usable
	// (CMP core placement spreads along it).
	if !r.HasGrid() {
		t.Fatal("ring must keep its W x 1 router grid")
	}
	if r.NodeAt(3, 0) != 3 {
		t.Fatalf("NodeAt(3,0) = %d, want 3", r.NodeAt(3, 0))
	}
}

func TestRingRenderFoldsIntoTwoRows(t *testing.T) {
	r, err := Build("ring", Params{W: 9, H: 1, CoreX: 0, MemX: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, h := r.RenderSize()
	if w != 5 || h != 2 {
		t.Fatalf("RenderSize = %dx%d, want 5x2", w, h)
	}
	seen := make(map[[2]int]bool)
	for n := 0; n < r.NumNodes(); n++ {
		x, y := r.RenderCoord(NodeID(n))
		if x < 0 || x >= w || y < 0 || y >= h {
			t.Fatalf("node %d renders out of bounds at (%d,%d)", n, x, y)
		}
		if seen[[2]int{x, y}] {
			t.Fatalf("node %d shares render cell (%d,%d)", n, x, y)
		}
		seen[[2]int{x, y}] = true
	}
	// First half left-to-right on top, second half folded underneath.
	if x, y := r.RenderCoord(0); x != 0 || y != 0 {
		t.Fatalf("node 0 renders at (%d,%d), want (0,0)", x, y)
	}
	// Node 5 folds under its ring neighbor 4: the fold keeps render
	// neighbors (mostly) ring neighbors.
	if x, y := r.RenderCoord(5); x != 4 || y != 1 {
		t.Fatalf("node 5 renders at (%d,%d), want (4,1)", x, y)
	}
}

func TestCMeshStructure(t *testing.T) {
	c, err := Build("cmesh", Params{W: 4, H: 16, CoreX: 1, MemX: 2,
		HorizDelay: 1, VertDelay: []int{1}, Concentration: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 16 ways at concentration 4 -> 4 router rows of 4 routers.
	if c.NumNodes() != 16 {
		t.Fatalf("nodes = %d, want 16", c.NumNodes())
	}
	if c.NumBanks() != 64 || c.Columns() != 4 || c.Ways() != 16 {
		t.Fatalf("banks=%d columns=%d ways=%d, want 64/4/16", c.NumBanks(), c.Columns(), c.Ways())
	}
	for n := 0; n < c.NumNodes(); n++ {
		if got := c.BanksAt(NodeID(n)); got != 4 {
			t.Fatalf("node %d hosts %d banks, want 4", n, got)
		}
	}
	// Full 4x4 mesh link structure.
	if got, want := c.CountLinks(), 2*(4*3+4*3); got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	if !c.HasGrid() {
		t.Fatal("cmesh must expose its full router grid (CMP placement)")
	}
	// Column positions map to routers top-to-bottom, Concentration at a
	// time: column 2 positions 0-3 on router (2,0), 4-7 on (2,1), ...
	col := c.Column(2)
	if len(col) != 16 {
		t.Fatalf("column length = %d, want 16", len(col))
	}
	for pos, node := range col {
		wantNode := c.NodeAt(2, pos/4)
		if node != wantNode {
			t.Fatalf("column 2 pos %d on node %d, want %d", pos, node, wantNode)
		}
	}
	if c.Core != c.NodeAt(1, 0) || c.Mem != c.NodeAt(2, 3) {
		t.Fatalf("core=%d mem=%d, want %d/%d", c.Core, c.Mem, c.NodeAt(1, 0), c.NodeAt(2, 3))
	}
}

func TestHaloRenderNonUniform(t *testing.T) {
	// Design F's shape: 16 spikes of length 5 with non-uniform wire
	// delays. Render coordinates must stay a compact distinct grid
	// regardless of the delays.
	h := MustBuild("halo", Params{W: 16, H: 5, VertDelay: []int{1, 1, 2, 2, 3}, MemWireDelay: 9})
	w, ht := h.RenderSize()
	if w != 16 || ht != 6 {
		t.Fatalf("RenderSize = %dx%d, want 16x6 (spikes x length+hub row)", w, ht)
	}
	if x, y := h.RenderCoord(h.Hub()); x != 8 || y != 0 {
		t.Fatalf("hub renders at (%d,%d), want (8,0)", x, y)
	}
	seen := make(map[[2]int]bool)
	for n := 0; n < h.NumNodes(); n++ {
		x, y := h.RenderCoord(NodeID(n))
		if x < 0 || x >= w || y < 0 || y >= ht {
			t.Fatalf("node %d out of bounds at (%d,%d)", n, x, y)
		}
		if seen[[2]int{x, y}] {
			t.Fatalf("duplicate render cell (%d,%d)", x, y)
		}
		seen[[2]int{x, y}] = true
	}
	// Spike s position p renders at (s, p+1).
	for s := 0; s < 16; s++ {
		for p := 0; p < 5; p++ {
			x, y := h.RenderCoord(h.Column(s)[p])
			if x != s || y != p+1 {
				t.Fatalf("spike %d pos %d renders at (%d,%d), want (%d,%d)", s, p, x, y, s, p+1)
			}
		}
	}
}

func TestBuilderRejectsBadGraphs(t *testing.T) {
	// No columns at all.
	b := NewBuilder("bad", "xy", 1, 1)
	b.AddNode(0, 0, 2)
	b.Endpoints(0, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("builder must reject a topology without bank columns")
	}
	// Unequal column lengths.
	b2 := NewBuilder("bad2", "xy", 2, 2)
	n0 := b2.AddNode(0, 0, 2)
	n1 := b2.AddNode(1, 0, 2)
	b2.Column(n0, n1)
	b2.Column(n0)
	b2.Endpoints(n0, n1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("builder must reject unequal column lengths")
	}
}
