package topology

import "fmt"

// HierRingPos returns the bridge ring position of a node: bridges carry
// their position directly (their logical X; they sit off the grid at
// Y = -1), and a mesh node's column projects between its chiplet's two
// bridges. The ring has W + 2*Chiplets positions; the routing algorithm
// and its channel order both steer by this projection.
func HierRingPos(t *Topology, n NodeID) int {
	nd := t.Nodes[n]
	if nd.Y < 0 {
		return nd.X
	}
	cw := t.W / HierChiplets(t)
	return (nd.X/cw)*(cw+2) + 1 + nd.X%cw
}

// HierChiplets counts the chiplets of a hier topology from its bridge
// nodes (the off-grid pairs).
func HierChiplets(t *Topology) int {
	nb := 0
	for _, nd := range t.Nodes {
		if nd.Y < 0 {
			nb++
		}
	}
	return nb / 2
}

// newHier builds the two-level hierarchical topology: Chiplets
// intra-chiplet simplified meshes (horizontal links only in row 0)
// stitched by an inter-chiplet bridge ring. Each chiplet gets two bridge
// routers — a west bridge feeding its first row-0 router and an east
// bridge fed by its last — and the bridges close into one bidirectional
// ring, so row-0 lateral traffic inside a chiplet stays on the mesh while
// cross-chiplet traffic hops bridge to bridge.
//
// The bridges are ordinary nodes of the graph (two ports, no banks, off
// the logical grid like the halo hub), so routing precompute, the static
// verifiers, and every router engine compose with the hierarchy
// unchanged.
//
// It reads W total columns across all chiplets, H mesh rows, Chiplets,
// CoreX and MemX (global row-0 columns of the two controllers; the CMP
// fabric ignores CoreX and spreads its cores), HorizDelay for row-0 and
// bridge links, and per-row VertDelay.
func newHier(p Params) (*Topology, error) {
	if p.Chiplets < 2 {
		return nil, fmt.Errorf("topology: hierarchical topology needs >= 2 chiplets, got %d", p.Chiplets)
	}
	if err := p.checkGrid("hier"); err != nil {
		return nil, err
	}
	W, H, C := p.W, p.H, p.Chiplets
	if W%C != 0 {
		return nil, fmt.Errorf("topology: %d columns do not split into %d chiplets", W, C)
	}
	cw := W / C
	if cw < 2 {
		return nil, fmt.Errorf("topology: chiplets need >= 2 columns, got %d", cw)
	}
	// The chiplet meshes are one simplified-mesh grid with its row-0
	// links cut at chiplet edges.
	b, err := meshGraph("hier", "hier", p, false)
	if err != nil {
		return nil, err
	}
	at := func(x, y int) NodeID { return y*W + x }
	// Render with one extra top row for the bridge ring: mesh row y draws
	// at render row y+1, each chiplet's bridges at its edge columns of
	// render row 0.
	b.RenderSize(W, H+1)
	for id := 0; id < W*H; id++ {
		b.PlaceAt(id, id%W, id/W+1)
	}
	hd := p.hdelay()
	// Row-0 horizontal links stay inside each chiplet.
	for x := 0; x+1 < W; x++ {
		if x/cw == (x+1)/cw {
			b.Connect(at(x, 0), PortEast, at(x+1, 0), PortWest, hd)
		}
	}
	// Bridge pairs: chiplet i's west bridge sits at ring position
	// i*(cw+2), its east bridge at i*(cw+2)+cw+1, with the chiplet's row-0
	// routers projecting between them. PortEast is always the clockwise
	// (increasing ring position) direction, matching the mesh row.
	west := make([]NodeID, C)
	east := make([]NodeID, C)
	for i := 0; i < C; i++ {
		west[i] = b.AddNode(i*(cw+2), -1, 2)
		b.PlaceAt(west[i], i*cw, 0)
		east[i] = b.AddNode(i*(cw+2)+cw+1, -1, 2)
		b.PlaceAt(east[i], i*cw+cw-1, 0)
		b.Connect(west[i], PortEast, at(i*cw, 0), PortWest, hd)
		b.Connect(at(i*cw+cw-1, 0), PortEast, east[i], PortWest, hd)
	}
	for i := 0; i < C; i++ {
		b.Connect(east[i], PortEast, west[(i+1)%C], PortWest, hd)
	}
	// Both controllers sit in row 0.
	b.Endpoints(at(p.CoreX, 0), at(p.MemX, 0))
	return b.Build()
}
