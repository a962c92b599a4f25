// Package topology builds the interconnect graphs evaluated in the paper
// and beyond: the full 2D mesh (Design A), the simplified mesh with
// horizontal links only in the core row (Designs B, C, D), the
// minimal-link mesh of Figure 4(b), the halo network (Designs E, F) where
// every MRU bank is one hop from the hub, plus extensions (a
// bidirectional ring, a concentrated mesh with several banks per router).
//
// A topology is a first-class directed graph: router nodes with typed
// ports of arbitrary degree, directed port-to-port links with wire delays,
// bank-set columns mapping cache banks onto nodes, endpoint placement
// (core and memory routers), and render coordinates for spatial telemetry.
// Families are produced by builders named in one table (see registry.go);
// nothing downstream switches on a topology enum — consumers read the
// graph (and the Routing/Radial annotations) instead.
package topology

import "fmt"

// NodeID identifies a router.
type NodeID = int

// Canonical mesh port numbers. Halo uses PortUp/PortDown on spike nodes
// and one port per spike on the hub; rings use PortEast (clockwise) and
// PortWest (counter-clockwise). These are conventions of the builders,
// not structural requirements: a node may have any number of ports.
const (
	PortEast  = 0 // X+
	PortWest  = 1 // X-
	PortSouth = 2 // Y+ (away from the core row)
	PortNorth = 3 // Y- (toward the core row)

	PortUp   = 0 // halo spike: toward the hub
	PortDown = 1 // halo spike: away from the hub
)

// NoLink marks an absent port.
const NoLink = -1

// PortLink is one directed link leaving a node.
type PortLink struct {
	To     NodeID
	ToPort int
	Delay  int // wire traversal cycles (>= 1)
}

// Node is one router.
type Node struct {
	ID NodeID
	// X, Y locate the node logically: mesh coordinates, (spike, position)
	// on a halo, (ring position, 0) on a ring. The halo hub has X = -1,
	// Y = -1. Routing algorithms steer by these.
	X, Y int
	// Col is the bank-set column whose banks this node hosts, or -1 for
	// nodes without banks (the halo hub). A node may host several
	// consecutive positions of its column (concentrated meshes).
	Col int
	// RX, RY place the node in the RenderSize grid for spatial telemetry;
	// every node occupies a distinct cell.
	RX, RY int
}

// Topology is an immutable interconnect graph.
type Topology struct {
	// Name is the family name ("mesh", "halo", "ring", ...).
	Name string
	// Routing names the routing algorithm this graph is designed for
	// (resolved in the routing package's algorithm table).
	Routing string
	// W, H are the family's logical dimensions: mesh width/height, halo
	// (#spikes, spike length), ring (size, 1), cmesh router grid.
	W, H  int
	Nodes []Node
	// Ports[n][p] describes the link leaving node n through port p.
	Ports [][]PortLink
	// Core and Mem are the routers hosting the cache controller and the
	// memory controller endpoints.
	Core, Mem NodeID
	// MemWireDelay is the extra wire delay (cycles, each way) between the
	// memory controller and the off-chip pins; large for halos whose
	// memory controller sits at the die centre (16 for E, 9 for F).
	MemWireDelay int
	// Radial marks hub-and-spike die layouts (halo): the area model packs
	// radial topologies around a central core instead of into rows.
	Radial bool

	renderW, renderH int
	nodeAt           [][]NodeID // nodeAt[y][x] for nodes with in-range (X, Y)
	columns          [][]NodeID // bank-set columns in distance order from the core
	banks            int
}

// NumNodes returns the router count.
func (t *Topology) NumNodes() int { return len(t.Nodes) }

// NumBanks returns the cache bank count (total column positions).
func (t *Topology) NumBanks() int { return t.banks }

// NumPorts returns how many neighbor ports node n has (including absent ones).
func (t *Topology) NumPorts(n NodeID) int { return len(t.Ports[n]) }

// Link returns the directed link leaving n via port p and whether it exists.
func (t *Topology) Link(n NodeID, p int) (PortLink, bool) {
	if p < 0 || p >= len(t.Ports[n]) || t.Ports[n][p].To == NoLink {
		return PortLink{}, false
	}
	return t.Ports[n][p], true
}

// HasGrid reports whether the topology populates the full W x H logical
// grid, i.e. NodeAt is defined for every (x, y). Halos have a grid for
// their spike nodes but the hub lives outside it.
func (t *Topology) HasGrid() bool { return t.nodeAt != nil }

// NodeAt returns the node at logical coordinates (x, y): mesh position,
// or for halos the node on spike x at position y (the hub is not
// addressable this way).
func (t *Topology) NodeAt(x, y int) NodeID {
	return t.nodeAt[y][x]
}

// Columns returns the number of bank-set columns (mesh width / spike count).
func (t *Topology) Columns() int { return len(t.columns) }

// Column returns the routers of bank-set column c ordered by distance from
// the core: Column(c)[0] hosts the MRU bank, the last element the LRU
// bank. A router may appear several times when it hosts consecutive
// positions (concentrated meshes).
func (t *Topology) Column(c int) []NodeID { return t.columns[c] }

// Ways returns the number of banks in each bank-set column.
func (t *Topology) Ways() int { return len(t.columns[0]) }

// ColumnOf returns the bank-set column of node n and its first position
// within the column (0 = MRU). ok is false for nodes without a bank (the
// hub).
func (t *Topology) ColumnOf(n NodeID) (col, pos int, ok bool) {
	nd := t.Nodes[n]
	if nd.Col < 0 {
		return 0, 0, false
	}
	for p, id := range t.columns[nd.Col] {
		if id == n {
			return nd.Col, p, true
		}
	}
	return 0, 0, false
}

// BanksAt returns how many bank positions node n hosts: 0 for bankless
// nodes (the halo hub), 1 on ordinary topologies, >1 on concentrated
// nodes.
func (t *Topology) BanksAt(n NodeID) int {
	nd := t.Nodes[n]
	if nd.Col < 0 {
		return 0
	}
	c := 0
	for _, id := range t.columns[nd.Col] {
		if id == n {
			c++
		}
	}
	return c
}

// SameColumn reports whether a and b are bank-bearing routers of the same
// bank-set column (mesh column or halo spike). Used by path multicast to
// decide local delivery.
func (t *Topology) SameColumn(a, b NodeID) bool {
	na, nb := t.Nodes[a], t.Nodes[b]
	return na.Col >= 0 && na.Col == nb.Col
}

// RenderSize returns the grid dimensions for rendering per-node spatial
// data (telemetry heatmaps).
func (t *Topology) RenderSize() (w, h int) { return t.renderW, t.renderH }

// RenderCoord places node n in the RenderSize grid. Coordinates are part
// of the graph (set by the builder): meshes render at their mesh
// coordinates, halos hang the spikes below a centered hub row, rings
// fold into two rows. Every node gets a distinct cell.
func (t *Topology) RenderCoord(n NodeID) (x, y int) {
	nd := t.Nodes[n]
	return nd.RX, nd.RY
}

// Hub returns the hub node of a radial (halo) topology.
func (t *Topology) Hub() NodeID {
	if !t.Radial {
		panic("topology: Hub on non-radial topology")
	}
	return 0
}

// CountLinks returns the number of directed links in the topology.
func (t *Topology) CountLinks() int {
	c := 0
	for n := range t.Ports {
		for p := range t.Ports[n] {
			if t.Ports[n][p].To != NoLink {
				c++
			}
		}
	}
	return c
}

// Validate checks structural invariants: link symmetry of the port tables
// (every link's ToPort refers back or is at least a valid port), positive
// delays, in-range ids, well-formed columns, and distinct in-range render
// coordinates. It returns the first problem found.
func (t *Topology) Validate() error {
	for n := range t.Ports {
		for p, l := range t.Ports[n] {
			if l.To == NoLink {
				continue
			}
			if l.To < 0 || l.To >= len(t.Nodes) {
				return fmt.Errorf("node %d port %d: bad target %d", n, p, l.To)
			}
			if l.Delay < 1 {
				return fmt.Errorf("node %d port %d: delay %d < 1", n, p, l.Delay)
			}
			if l.ToPort < 0 || l.ToPort >= len(t.Ports[l.To]) {
				return fmt.Errorf("node %d port %d: bad ToPort %d", n, p, l.ToPort)
			}
		}
	}
	if t.Core < 0 || t.Core >= len(t.Nodes) {
		return fmt.Errorf("bad core node %d", t.Core)
	}
	if t.Mem < 0 || t.Mem >= len(t.Nodes) {
		return fmt.Errorf("bad mem node %d", t.Mem)
	}
	for c, col := range t.columns {
		if len(col) == 0 {
			return fmt.Errorf("column %d empty", c)
		}
		for pos, n := range col {
			if n < 0 || n >= len(t.Nodes) {
				return fmt.Errorf("column %d pos %d: bad node %d", c, pos, n)
			}
			if t.Nodes[n].Col != c {
				return fmt.Errorf("column %d pos %d: node %d tagged column %d", c, pos, n, t.Nodes[n].Col)
			}
		}
	}
	seen := make(map[[2]int]NodeID, len(t.Nodes))
	for _, nd := range t.Nodes {
		if nd.RX < 0 || nd.RX >= t.renderW || nd.RY < 0 || nd.RY >= t.renderH {
			return fmt.Errorf("node %d: render coord (%d,%d) outside %dx%d",
				nd.ID, nd.RX, nd.RY, t.renderW, t.renderH)
		}
		at := [2]int{nd.RX, nd.RY}
		if prev, dup := seen[at]; dup {
			return fmt.Errorf("nodes %d and %d share render cell (%d,%d)", prev, nd.ID, nd.RX, nd.RY)
		}
		seen[at] = nd.ID
	}
	return nil
}
