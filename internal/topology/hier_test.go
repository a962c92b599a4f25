package topology

import "testing"

// hierForTest is the H2 shape: two 8x4 chiplet meshes plus a 4-bridge
// ring, with the core column chosen so the dateline lands on an interior
// mesh link.
func hierForTest() *Topology {
	return MustBuild("hier", Params{W: 16, H: 4, Chiplets: 2, CoreX: 3, MemX: 3,
		HorizDelay: 2, VertDelay: []int{2}})
}

func TestHierStructure(t *testing.T) {
	topo := hierForTest()
	const W, H, C = 16, 4, 2
	if got, want := topo.NumNodes(), W*H+2*C; got != want {
		t.Fatalf("NumNodes = %d, want %d (mesh + bridges)", got, want)
	}
	if !topo.HasGrid() {
		t.Fatal("hier must keep the mesh grid (bridges sit off it)")
	}
	if got := HierChiplets(topo); got != C {
		t.Fatalf("HierChiplets = %d, want %d", got, C)
	}
	bridges := 0
	for id, nd := range topo.Nodes {
		if nd.Y >= 0 {
			continue
		}
		bridges++
		if topo.NumPorts(NodeID(id)) != 2 {
			t.Errorf("bridge %d has %d ports, want 2", id, topo.NumPorts(NodeID(id)))
		}
		if nd.Col >= 0 {
			t.Errorf("bridge %d assigned to bank column %d, want bankless", id, nd.Col)
		}
		if n := topo.BanksAt(NodeID(id)); n != 0 {
			t.Errorf("bridge %d hosts %d banks, want 0", id, n)
		}
	}
	if bridges != 2*C {
		t.Fatalf("%d off-grid bridge nodes, want %d", bridges, 2*C)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestHierRingClosure follows PortEast from a bridge around the full ring:
// it must return to the start in exactly W + 2*Chiplets hops, visiting
// every bridge and every row-0 mesh router once, in increasing ring
// position order.
func TestHierRingClosure(t *testing.T) {
	topo := hierForTest()
	ring := topo.W + 2*HierChiplets(topo)
	// West bridge of chiplet 0: ring position 0.
	var start NodeID = -1
	for id, nd := range topo.Nodes {
		if nd.Y < 0 && HierRingPos(topo, NodeID(id)) == 0 {
			start = NodeID(id)
			break
		}
		_ = nd
	}
	if start < 0 {
		t.Fatal("no bridge at ring position 0")
	}
	cur := start
	for hop := 0; hop < ring; hop++ {
		if got := HierRingPos(topo, cur); got != hop {
			t.Fatalf("hop %d lands on ring position %d", hop, got)
		}
		l, ok := topo.Link(cur, PortEast)
		if !ok {
			t.Fatalf("ring broken: no PortEast link at node %d (ring position %d)", cur, hop)
		}
		cur = l.To
	}
	if cur != start {
		t.Fatalf("ring of %d hops does not close: ended at %d, started at %d", ring, cur, start)
	}
}

// TestHierRingPositions pins the projection: bridges carry their logical
// X, a mesh column x of chiplet i projects to i*(cw+2) + 1 + x%cw.
func TestHierRingPositions(t *testing.T) {
	topo := hierForTest()
	cw := 8
	for id, nd := range topo.Nodes {
		got := HierRingPos(topo, NodeID(id))
		var want int
		if nd.Y < 0 {
			want = nd.X
		} else {
			want = (nd.X/cw)*(cw+2) + 1 + nd.X%cw
		}
		if got != want {
			t.Errorf("node %d (X=%d, Y=%d): ring position %d, want %d", id, nd.X, nd.Y, got, want)
		}
	}
}
