package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

func std16() Params {
	return Params{W: 16, H: 16, CoreX: 7, MemX: 8}
}

func TestMeshStructure(t *testing.T) {
	m := MustBuild("mesh", std16())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 256 || m.NumBanks() != 256 {
		t.Fatalf("nodes=%d banks=%d, want 256/256", m.NumNodes(), m.NumBanks())
	}
	// Full mesh: 2*(W*(H-1) + H*(W-1)) directed links.
	want := 2 * (16*15 + 16*15)
	if got := m.CountLinks(); got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	if m.Core != m.NodeAt(7, 0) {
		t.Fatal("core must attach at (7,0)")
	}
	if m.Mem != m.NodeAt(8, 15) {
		t.Fatal("memory must attach at (8,15)")
	}
}

func TestMeshColumnsAreBankSets(t *testing.T) {
	m := MustBuild("mesh", std16())
	if m.Columns() != 16 || m.Ways() != 16 {
		t.Fatalf("columns=%d ways=%d, want 16/16", m.Columns(), m.Ways())
	}
	for c := 0; c < 16; c++ {
		col := m.Column(c)
		for pos, n := range col {
			if m.Nodes[n].X != c || m.Nodes[n].Y != pos {
				t.Fatalf("column %d pos %d is node (%d,%d)", c, pos,
					m.Nodes[n].X, m.Nodes[n].Y)
			}
			cc, pp, ok := m.ColumnOf(n)
			if !ok || cc != c || pp != pos {
				t.Fatalf("ColumnOf(%d) = %d,%d,%v", n, cc, pp, ok)
			}
		}
	}
}

func TestSimplifiedMeshRemovesHorizontalLinks(t *testing.T) {
	s := MustBuild("simplified-mesh", std16())
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Horizontal links only in row 0.
	for y := 1; y < 16; y++ {
		for x := 0; x < 16; x++ {
			n := s.NodeAt(x, y)
			if _, ok := s.Link(n, PortEast); ok {
				t.Fatalf("(%d,%d) must have no east link", x, y)
			}
			if _, ok := s.Link(n, PortWest); ok {
				t.Fatalf("(%d,%d) must have no west link", x, y)
			}
		}
	}
	// Memory controller moves next to the core.
	if s.Mem != s.Core {
		t.Fatal("simplified mesh must co-locate memory with the core")
	}
	// Link savings: full mesh has 960 directed links; simplified removes
	// horizontal ones except row 0: 2*15*15 = 450 directed.
	full := MustBuild("mesh", std16()).CountLinks()
	if got := full - s.CountLinks(); got != 2*15*15 {
		t.Fatalf("removed %d directed links, want %d", got, 2*15*15)
	}
}

func TestMinimalMeshLinkCount(t *testing.T) {
	// Paper: we can remove (n-2)^2 of the 4(n-1)^2 links of an n x n mesh.
	for _, n := range []int{4, 8, 16} {
		spec := Params{W: n, H: n, CoreX: n/2 - 1, MemX: n / 2}
		m := MustBuild("minimal-mesh", spec)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		full := 4 * (n - 1) * (n - 1) // paper counts bidirectional pairs as 2? it counts total links
		_ = full
		// Structure checks: first/last rows fully bidirectional,
		// middle rows one-way toward the core column.
		for x := 0; x+1 < n; x++ {
			for _, y := range []int{0, n - 1} {
				a := m.NodeAt(x, y)
				if _, ok := m.Link(a, PortEast); !ok {
					t.Fatalf("n=%d: row %d must keep east link at x=%d", n, y, x)
				}
			}
		}
		for y := 1; y < n-1; y++ {
			// West of core column: east-only.
			if spec.CoreX >= 1 {
				a := m.NodeAt(0, y)
				if _, ok := m.Link(a, PortEast); !ok {
					t.Fatalf("n=%d: middle row %d lost eastbound link toward core", n, y)
				}
				b := m.NodeAt(1, y)
				if spec.CoreX >= 2 {
					if _, ok := m.Link(b, PortWest); ok {
						t.Fatalf("n=%d: middle row %d must drop westbound link away from core", n, y)
					}
				}
			}
		}
	}
}

func TestHaloStructure(t *testing.T) {
	h := MustBuild("halo", Params{W: 16, H: 16, MemWireDelay: 16})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 257 || h.NumBanks() != 256 {
		t.Fatalf("nodes=%d banks=%d, want 257/256", h.NumNodes(), h.NumBanks())
	}
	if h.Core != h.Hub() || h.Mem != h.Hub() {
		t.Fatal("core and memory must attach at the hub")
	}
	if h.Nodes[h.Hub()].Col != -1 || h.BanksAt(h.Hub()) != 0 {
		t.Fatal("hub must have no bank")
	}
	// Defining property: every MRU bank exactly one hop from the hub.
	for s := 0; s < 16; s++ {
		l, ok := h.Link(h.Hub(), s)
		if !ok {
			t.Fatalf("hub missing spike port %d", s)
		}
		if l.To != h.Column(s)[0] {
			t.Fatalf("hub port %d connects to %d, want MRU bank router %d",
				s, l.To, h.Column(s)[0])
		}
	}
	// Directed links: per spike, 2*Length.
	if got, want := h.CountLinks(), 16*2*16; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestHaloNonUniformDelays(t *testing.T) {
	// Design F: 5 banks per spike (64,64,128,256,512 KB) with wire
	// delays 1,1,2,2,3.
	h := MustBuild("halo", Params{W: 16, H: 5, VertDelay: []int{1, 1, 2, 2, 3}, MemWireDelay: 9})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	col := h.Column(3)
	wants := []int{1, 1, 2, 2, 3}
	l, _ := h.Link(h.Hub(), 3)
	if l.Delay != wants[0] {
		t.Fatalf("hub link delay = %d, want %d", l.Delay, wants[0])
	}
	for p := 1; p < 5; p++ {
		l, ok := h.Link(col[p-1], PortDown)
		if !ok || l.Delay != wants[p] {
			t.Fatalf("spike link into pos %d delay = %d, want %d", p, l.Delay, wants[p])
		}
	}
	if h.MemWireDelay != 9 {
		t.Fatalf("MemWireDelay = %d, want 9", h.MemWireDelay)
	}
}

func TestVerticalDelayBroadcast(t *testing.T) {
	m := MustBuild("mesh", Params{W: 4, H: 4, CoreX: 1, MemX: 2, VertDelay: []int{2}})
	l, ok := m.Link(m.NodeAt(0, 0), PortSouth)
	if !ok || l.Delay != 2 {
		t.Fatalf("broadcast vertical delay = %d, want 2", l.Delay)
	}
}

func TestPerRowVerticalDelay(t *testing.T) {
	// Design D rows: 64,64,128,256,512 KB with delays 1,1,2,2,3 entering
	// each row.
	m := MustBuild("simplified-mesh", Params{W: 16, H: 5, CoreX: 7, MemX: 7,
		HorizDelay: 3, VertDelay: []int{0, 1, 2, 2, 3}})
	for y := 1; y < 5; y++ {
		want := []int{0, 1, 2, 2, 3}[y]
		l, ok := m.Link(m.NodeAt(0, y-1), PortSouth)
		if !ok || l.Delay != want {
			t.Fatalf("vertical link into row %d delay = %d, want %d", y, l.Delay, want)
		}
	}
	l, _ := m.Link(m.NodeAt(0, 0), PortEast)
	if l.Delay != 3 {
		t.Fatalf("horizontal delay = %d, want 3", l.Delay)
	}
}

func TestLinkSymmetry(t *testing.T) {
	check := func(tp *Topology) {
		for n := range tp.Ports {
			for p := range tp.Ports[n] {
				l, ok := tp.Link(n, p)
				if !ok {
					continue
				}
				back, bok := tp.Link(l.To, l.ToPort)
				if tp.Name == "minimal-mesh" && !bok {
					continue // one-way links allowed
				}
				if !bok || back.To != n {
					t.Fatalf("%v: link %d.%d -> %d.%d has no symmetric return",
						tp.Name, n, p, l.To, l.ToPort)
				}
				if back.Delay != l.Delay {
					t.Fatalf("asymmetric delay on %d<->%d", n, l.To)
				}
			}
		}
	}
	check(MustBuild("mesh", std16()))
	check(MustBuild("simplified-mesh", std16()))
	check(MustBuild("halo", Params{W: 16, H: 5}))
	check(MustBuild("minimal-mesh", std16()))
}

func TestMeshPropertyDimensions(t *testing.T) {
	if err := quick.Check(func(w8, h8 uint8) bool {
		w := int(w8%10) + 2
		h := int(h8%10) + 2
		m := MustBuild("mesh", Params{W: w, H: h, CoreX: w / 2, MemX: w / 2})
		if m.Validate() != nil {
			return false
		}
		return m.NumNodes() == w*h && m.Columns() == w && m.Ways() == h &&
			m.CountLinks() == 2*(w*(h-1)+h*(w-1))
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// badParam is one malformed parameter set and the full error text Build
// returns for it.
type badParam struct {
	family string
	p      Params
	want   string
}

// badParams is the one rejection table over every family (rows with two
// faults pin which check runs first). Each family's rows are checked by
// exactly one of the tests below, and TestBadSpecsPanic checks that every
// registered family has rows.
var badParams = []badParam{
	{"mesh", Params{W: 0, H: 4}, "topology: bad mesh 0x4"},
	{"mesh", Params{W: 4, H: -1}, "topology: bad mesh 4x-1"},
	{"mesh", Params{W: 4, H: 4, CoreX: 9}, "topology: core/mem column out of range"},
	{"mesh", Params{W: 4, H: 4, MemX: -1}, "topology: core/mem column out of range"},
	{"mesh", Params{W: 4, H: 4, VertDelay: []int{1, 2}}, "topology: 2 vertical delays for 4 rows"},
	{"mesh", Params{W: 4, H: 4, VertDelay: []int{0}}, "topology mesh: node 0 port 2: delay 0 < 1"},
	{"mesh", Params{W: 0, H: 4, CoreX: 9}, "topology: bad mesh 0x4"},
	{"simplified-mesh", Params{W: 16, H: 0}, "topology: bad mesh 16x0"},
	{"simplified-mesh", Params{W: 4, H: 4, CoreX: 4}, "topology: core/mem column out of range"},
	{"minimal-mesh", Params{W: 4, H: 4, VertDelay: []int{1, 1, 1}}, "topology: 3 vertical delays for 4 rows"},
	{"minimal-mesh", Params{W: 4, H: 4, MemX: 4, VertDelay: []int{1, 1, 1}}, "topology: core/mem column out of range"},
	{"halo", Params{W: 0, H: 4}, "topology: bad halo 0x4"},
	{"halo", Params{W: 4, H: 0}, "topology: bad halo 4x0"},
	{"halo", Params{W: 4, H: 4, VertDelay: []int{1, 2}}, "topology: 2 spike delays for length 4"},
	{"ring", Params{W: 8, H: 2}, "topology: ring has one bank per node, H must be 1 (got 2)"},
	{"ring", Params{W: 2, H: 1}, "topology: ring needs >= 3 nodes, got 2"},
	{"ring", Params{W: 2, H: 2}, "topology: ring has one bank per node, H must be 1 (got 2)"},
	{"ring", Params{W: 8, H: 1, MemX: 8}, "topology: core/mem position out of range"},
	{"ring", Params{W: 8, H: 1, CoreX: -1}, "topology: core/mem position out of range"},
	{"cmesh", Params{W: 0, H: 16, Concentration: 4}, "topology: bad cmesh 0x16"},
	{"cmesh", Params{W: 4, H: 16, CoreX: 1, MemX: 2, Concentration: 3}, "topology: concentration 3 does not divide 16 ways"},
	{"cmesh", Params{W: 4, H: 16}, "topology: concentration 0 does not divide 16 ways"},
	{"cmesh", Params{W: 4, H: 16, CoreX: 4, Concentration: 4}, "topology: core/mem column out of range"},
	{"cmesh", Params{W: 4, H: 16, Concentration: 4, VertDelay: []int{1, 2}}, "topology: 2 vertical delays for 4 router rows"},
	{"hier", Params{W: 16, H: 4, Chiplets: 1}, "topology: hierarchical topology needs >= 2 chiplets, got 1"},
	{"hier", Params{W: 0, H: 4, Chiplets: 1}, "topology: hierarchical topology needs >= 2 chiplets, got 1"},
	{"hier", Params{W: 0, H: 4, Chiplets: 2}, "topology: bad hier 0x4"},
	{"hier", Params{W: 15, H: 4, Chiplets: 2}, "topology: 15 columns do not split into 2 chiplets"},
	{"hier", Params{W: 4, H: 2, Chiplets: 4}, "topology: chiplets need >= 2 columns, got 1"},
	{"hier", Params{W: 16, H: 4, Chiplets: 2, CoreX: 16}, "topology: core/mem column out of range"},
	{"hier", Params{W: 16, H: 4, Chiplets: 2, VertDelay: []int{1, 2}}, "topology: 2 vertical delays for 4 rows"},
}

// checkRejections asserts that Build rejects every badParams row of the
// given families with its full error text and that MustBuild panics with
// the same text.
func checkRejections(t *testing.T, families ...string) {
	t.Helper()
	n := 0
	for _, c := range badParams {
		if !slices.Contains(families, c.family) {
			continue
		}
		n++
		_, err := Build(c.family, c.p)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s %+v: error %v, want %q", c.family, c.p, err, c.want)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("%s %+v: MustBuild panicked with %v, want %q", c.family, c.p, r, c.want)
				}
			}()
			MustBuild(c.family, c.p)
		}()
	}
	if n == 0 {
		t.Fatalf("no rejection rows for %v", families)
	}
}

// TestBadSpecsPanic covers the mesh and halo families and that the
// rejection table has rows for every registered family.
func TestBadSpecsPanic(t *testing.T) {
	for _, name := range Names() {
		if !slices.ContainsFunc(badParams, func(c badParam) bool { return c.family == name }) {
			t.Errorf("family %q has no rejection rows", name)
		}
	}
	checkRejections(t, "mesh", "simplified-mesh", "minimal-mesh", "halo")
}

func TestRingTooSmall(t *testing.T) { checkRejections(t, "ring") }

func TestCMeshBadConcentration(t *testing.T) { checkRejections(t, "cmesh") }

func TestHierRejectsBadSpecs(t *testing.T) { checkRejections(t, "hier") }

func TestHubPanicsOnMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hub on mesh should panic")
		}
	}()
	MustBuild("mesh", std16()).Hub()
}

// TestRenderCoords pins the telemetry heatmap coordinate export: every
// node of every topology family maps to a distinct in-bounds grid cell.
func TestRenderCoords(t *testing.T) {
	topos := map[string]*Topology{
		"mesh":       MustBuild("mesh", std16()),
		"simplified": MustBuild("simplified-mesh", std16()),
		"halo":       MustBuild("halo", Params{W: 16, H: 4}),
	}
	for name, topo := range topos {
		w, h := topo.RenderSize()
		if w <= 0 || h <= 0 {
			t.Fatalf("%s: RenderSize = %dx%d", name, w, h)
		}
		seen := make(map[[2]int]NodeID)
		for n := 0; n < topo.NumNodes(); n++ {
			x, y := topo.RenderCoord(n)
			if x < 0 || x >= w || y < 0 || y >= h {
				t.Fatalf("%s: node %d renders out of bounds at (%d,%d) in %dx%d", name, n, x, y, w, h)
			}
			if prev, dup := seen[[2]int{x, y}]; dup {
				t.Fatalf("%s: nodes %d and %d share cell (%d,%d)", name, prev, n, x, y)
			}
			seen[[2]int{x, y}] = n
		}
	}
	// Halo specifics: the hub sits centered in its own top row, spikes
	// below it.
	halo := topos["halo"]
	if x, y := halo.RenderCoord(halo.Hub()); x != 8 || y != 0 {
		t.Fatalf("hub renders at (%d,%d), want (8,0)", x, y)
	}
	if _, h := halo.RenderSize(); h != 5 {
		t.Fatalf("halo render height = %d, want spike length + hub row = 5", h)
	}
}
