package topology

func init() {
	Register("mesh", newMesh)
	Register("simplified-mesh", newSimplifiedMesh)
	Register("minimal-mesh", newMinimalMesh)
}

// MeshSpec and NewMesh exist only for the benchmark harness
// (benchmark/layers.go), whose files are frozen; the benchmark-only
// change of ROADMAP item 1 moves it to MustBuild and deletes both.
type MeshSpec = Params

// NewMesh is MustBuild("mesh", p), kept only for the benchmark harness
// (see MeshSpec).
func NewMesh(p MeshSpec) *Topology { return MustBuild("mesh", p) }

// meshGraph assembles the nodes, vertical links, columns, and endpoints
// shared by all mesh variants on a Builder; the caller adds the family's
// horizontal links and finalizes. It reads W, H, CoreX, MemX and
// VertDelay (one delay per row, entering that row). The core attaches at
// (CoreX, 0) and the memory controller at (MemX, H-1), or at the core
// router when memAtCore. Node ids are y*W + x; with the full grid
// present, NodeAt(x, y) recovers them.
func meshGraph(name, routing string, p Params, memAtCore bool) (*Builder, error) {
	if err := firstErr(p.checkGrid("mesh"), p.checkEnds("column"),
		p.checkVertDelays(p.H, "topology: %d vertical delays for %d rows")); err != nil {
		return nil, err
	}
	b := NewBuilder(name, routing, p.W, p.H)
	at := func(x, y int) NodeID { return y*p.W + x }
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			b.AddNode(x, y, 4)
		}
	}
	for y := 1; y < p.H; y++ {
		d := p.vdelay(y)
		for x := 0; x < p.W; x++ {
			b.Connect(at(x, y-1), PortSouth, at(x, y), PortNorth, d)
		}
	}
	for x := 0; x < p.W; x++ {
		col := make([]NodeID, p.H)
		for y := 0; y < p.H; y++ {
			col[y] = at(x, y)
		}
		b.Column(col...)
	}
	mem := at(p.MemX, p.H-1)
	if memAtCore {
		mem = at(p.CoreX, 0)
	}
	b.Endpoints(at(p.CoreX, 0), mem)
	return b, nil
}

// newMesh builds a full 2D mesh (Design A): bidirectional links between
// all neighbors. It reads W x H routers, CoreX (core at (CoreX, 0)), MemX
// (memory controller at (MemX, H-1)), HorizDelay and per-row VertDelay.
func newMesh(p Params) (*Topology, error) {
	b, err := meshGraph("mesh", "xy", p, false)
	if err != nil {
		return nil, err
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x+1 < p.W; x++ {
			b.Connect(y*p.W+x, PortEast, y*p.W+x+1, PortWest, p.hdelay())
		}
	}
	return b.Build()
}

// newSimplifiedMesh builds the Design B-D topology (Figure 6(b)):
// horizontal links only in row 0; everything else travels vertically.
// Requires XYX routing; the memory controller moves next to the core. It
// reads W x H routers, CoreX (core and memory controller at (CoreX, 0)),
// HorizDelay and per-row VertDelay; MemX is range-checked but unused.
func newSimplifiedMesh(p Params) (*Topology, error) {
	b, err := meshGraph("simplified-mesh", "xyx", p, true)
	if err != nil {
		return nil, err
	}
	for x := 0; x+1 < p.W; x++ {
		b.Connect(x, PortEast, x+1, PortWest, p.hdelay())
	}
	return b.Build()
}

// newMinimalMesh builds Figure 4(b): full horizontal links in the first
// and last rows and between the core and memory columns; in middle rows
// only unidirectional horizontal links pointing toward the core column
// (used by replies under XY routing). Removes (n-2)^2 of the 4(n-1)^2
// mesh links. It reads the same fields as newMesh.
func newMinimalMesh(p Params) (*Topology, error) {
	b, err := meshGraph("minimal-mesh", "xy", p, false)
	if err != nil {
		return nil, err
	}
	at := func(x, y int) NodeID { return y*p.W + x }
	hd := p.hdelay()
	for y := 0; y < p.H; y++ {
		for x := 0; x+1 < p.W; x++ {
			a, n := at(x, y), at(x+1, y)
			switch {
			case y == 0 || y == p.H-1:
				b.Connect(a, PortEast, n, PortWest, hd)
			case (x >= p.CoreX && x+1 <= p.MemX) || (x >= p.MemX && x+1 <= p.CoreX):
				// Between the core-attached and memory-attached columns.
				b.Connect(a, PortEast, n, PortWest, hd)
			case x+1 <= p.CoreX:
				// West of the core column: eastbound only (toward core).
				b.OneWay(a, PortEast, n, PortWest, hd)
			case x >= p.CoreX:
				// East of the core column: westbound only (toward core).
				b.OneWay(n, PortWest, a, PortEast, hd)
			}
		}
	}
	return b.Build()
}
