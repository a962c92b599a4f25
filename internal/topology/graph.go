package topology

import "fmt"

// Builder assembles a Topology as an explicit directed graph: add nodes,
// give them ports, connect ports with links, declare bank-set columns and
// endpoint placement, then Build. Every family in the catalogue (see
// registry.go) is constructed through this API.
//
// Errors accumulate: the first problem is reported by Build, so call
// sites chain mutations without per-call checks.
type Builder struct {
	t   *Topology
	err error
}

// NewBuilder starts a topology of the named family with logical
// dimensions (w, h) and the catalogue name of its routing algorithm. The
// render grid defaults to w x h; override with RenderSize.
func NewBuilder(name, routing string, w, h int) *Builder {
	b := &Builder{t: &Topology{Name: name, Routing: routing, W: w, H: h,
		renderW: w, renderH: h}}
	if w < 1 || h < 1 {
		b.fail("bad dimensions %dx%d", w, h)
	}
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("topology %s: %s", b.t.Name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) validNode(n NodeID) bool {
	if n < 0 || n >= len(b.t.Nodes) {
		b.fail("no node %d", n)
		return false
	}
	return true
}

// AddNode appends a node at logical coordinates (x, y) with the given
// number of (initially unconnected) ports and returns its id. The render
// coordinate defaults to (x, y); override with PlaceAt.
func (b *Builder) AddNode(x, y, ports int) NodeID {
	id := len(b.t.Nodes)
	if ports < 0 {
		b.fail("node %d: negative port count %d", id, ports)
		ports = 0
	}
	b.t.Nodes = append(b.t.Nodes, Node{ID: id, X: x, Y: y, Col: -1, RX: x, RY: y})
	pl := make([]PortLink, ports)
	for p := range pl {
		pl[p].To = NoLink
	}
	b.t.Ports = append(b.t.Ports, pl)
	return id
}

// PlaceAt overrides node n's render coordinate.
func (b *Builder) PlaceAt(n NodeID, rx, ry int) {
	if b.validNode(n) {
		b.t.Nodes[n].RX, b.t.Nodes[n].RY = rx, ry
	}
}

// RenderSize overrides the render grid dimensions.
func (b *Builder) RenderSize(w, h int) { b.t.renderW, b.t.renderH = w, h }

func (b *Builder) validPort(n NodeID, p int) bool {
	if !b.validNode(n) {
		return false
	}
	if p < 0 || p >= len(b.t.Ports[n]) {
		b.fail("node %d has no port %d", n, p)
		return false
	}
	return true
}

// OneWay adds the directed link a.ap -> bn.bp with the given wire delay.
func (b *Builder) OneWay(a NodeID, ap int, bn NodeID, bp int, delay int) {
	if !b.validPort(a, ap) || !b.validPort(bn, bp) {
		return
	}
	if b.t.Ports[a][ap].To != NoLink {
		b.fail("node %d port %d already connected", a, ap)
		return
	}
	b.t.Ports[a][ap] = PortLink{To: bn, ToPort: bp, Delay: delay}
}

// Connect adds the bidirectional link pair a.ap <-> bn.bp.
func (b *Builder) Connect(a NodeID, ap int, bn NodeID, bp int, delay int) {
	b.OneWay(a, ap, bn, bp, delay)
	b.OneWay(bn, bp, a, ap, delay)
}

// Column appends one bank-set column: nodes in distance order from the
// core (position 0 = MRU bank). A node may appear several times to host
// consecutive positions, but only in the column being declared.
func (b *Builder) Column(nodes ...NodeID) {
	c := len(b.t.columns)
	for _, n := range nodes {
		if !b.validNode(n) {
			return
		}
		if b.t.Nodes[n].Col >= 0 && b.t.Nodes[n].Col != c {
			b.fail("node %d in columns %d and %d", n, b.t.Nodes[n].Col, c)
			return
		}
		b.t.Nodes[n].Col = c
	}
	b.t.columns = append(b.t.columns, append([]NodeID(nil), nodes...))
	b.t.banks += len(nodes)
}

// Endpoints places the cache controller (core) and memory controller.
func (b *Builder) Endpoints(core, mem NodeID) {
	if b.validNode(core) && b.validNode(mem) {
		b.t.Core, b.t.Mem = core, mem
	}
}

// Radial marks the topology as hub-and-spike for die layout purposes;
// node 0 must be the hub.
func (b *Builder) Radial() { b.t.Radial = true }

// MemWire sets the extra per-direction wire delay between the memory
// controller and the off-chip pins.
func (b *Builder) MemWire(delay int) { b.t.MemWireDelay = delay }

// Build finalizes the graph: derives the NodeAt grid from the nodes'
// logical coordinates (kept only when the full W x H grid is covered),
// validates the structure, and returns the immutable topology.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := b.t
	grid := make([][]NodeID, t.H)
	filled := 0
	for y := range grid {
		grid[y] = make([]NodeID, t.W)
		for x := range grid[y] {
			grid[y][x] = NoLink
		}
	}
	for _, nd := range t.Nodes {
		if nd.X < 0 || nd.X >= t.W || nd.Y < 0 || nd.Y >= t.H {
			continue // off-grid node (the halo hub)
		}
		if grid[nd.Y][nd.X] != NoLink {
			return nil, fmt.Errorf("topology %s: nodes %d and %d share cell (%d,%d)",
				t.Name, grid[nd.Y][nd.X], nd.ID, nd.X, nd.Y)
		}
		grid[nd.Y][nd.X] = nd.ID
		filled++
	}
	if filled == t.W*t.H {
		t.nodeAt = grid
	}
	if len(t.columns) == 0 {
		return nil, fmt.Errorf("topology %s: no bank-set columns", t.Name)
	}
	ways := len(t.columns[0])
	for c, col := range t.columns {
		if len(col) != ways {
			return nil, fmt.Errorf("topology %s: column %d has %d banks, column 0 has %d",
				t.Name, c, len(col), ways)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology %s: %w", t.Name, err)
	}
	return t, nil
}
