package routing

import (
	"reflect"
	"testing"
	"testing/quick"

	"nucanet/internal/topology"
)

func mesh16() *topology.Topology {
	return topology.NewMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 8})
}

func simpl16() *topology.Topology {
	return topology.NewSimplifiedMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 7})
}

func TestXYReachesAllPairsMinimally(t *testing.T) {
	m := mesh16()
	alg := XY{}
	for src := 0; src < m.NumNodes(); src += 7 {
		for dst := 0; dst < m.NumNodes(); dst += 5 {
			if src == dst {
				continue
			}
			hops, err := Walk(m, alg, src, dst, 64)
			if err != nil {
				t.Fatal(err)
			}
			a, b := m.Nodes[src], m.Nodes[dst]
			manhattan := abs(a.X-b.X) + abs(a.Y-b.Y)
			if len(hops) != manhattan {
				t.Fatalf("XY %d->%d took %d hops, want %d", src, dst, len(hops), manhattan)
			}
		}
	}
}

func TestXYOrdersXFirst(t *testing.T) {
	m := mesh16()
	hops, err := Walk(m, XY{}, m.NodeAt(2, 3), m.NodeAt(6, 9), 64)
	if err != nil {
		t.Fatal(err)
	}
	sawY := false
	for _, h := range hops {
		if h.Port == topology.PortSouth || h.Port == topology.PortNorth {
			sawY = true
		} else if sawY {
			t.Fatal("XY used an X link after a Y link")
		}
	}
}

// xyxPairs enumerates the (src,dst) pairs the cache traffic pattern uses on
// a simplified mesh: core row <-> banks, and within-column neighbors.
func xyxPairs(m *topology.Topology) [][2]int {
	var pairs [][2]int
	core := m.Core
	for n := 0; n < m.NumNodes(); n++ {
		if n != core {
			pairs = append(pairs, [2]int{core, n}, [2]int{n, core})
		}
	}
	for c := 0; c < m.Columns(); c++ {
		col := m.Column(c)
		for i := 0; i+1 < len(col); i++ {
			pairs = append(pairs, [2]int{col[i], col[i+1]}, [2]int{col[i+1], col[i]})
		}
	}
	return pairs
}

func TestXYXRoutesCacheTrafficOnSimplifiedMesh(t *testing.T) {
	m := simpl16()
	alg := XYX{}
	for _, pr := range xyxPairs(m) {
		if _, err := Walk(m, alg, pr[0], pr[1], 64); err != nil {
			t.Fatal(err)
		}
	}
}

func TestXYWouldBreakOnSimplifiedMesh(t *testing.T) {
	// Sanity: plain XY needs horizontal links in bank rows, which the
	// simplified mesh lacks — the very reason the paper introduces XYX.
	m := simpl16()
	src := m.NodeAt(2, 5) // a bank off the core column
	_, err := Walk(m, XY{}, src, m.Core, 64)
	if err == nil {
		t.Fatal("XY should fail from a middle-row bank to the core on a simplified mesh")
	}
}

func TestXYXRepliesGoYFirst(t *testing.T) {
	m := simpl16()
	hops, err := Walk(m, XYX{}, m.NodeAt(3, 9), m.Core, 64)
	if err != nil {
		t.Fatal(err)
	}
	sawX := false
	for _, h := range hops {
		if h.Port == topology.PortEast || h.Port == topology.PortWest {
			sawX = true
		} else if h.Port == topology.PortNorth && sawX {
			t.Fatal("XYX reply used Y- after X")
		}
	}
	if !sawX {
		t.Fatal("route should cross columns in row 0")
	}
}

// TestXYXChannelOrderTotal is the deadlock-freedom proof obligation: every
// XYX route over the cache traffic pattern must follow strictly increasing
// channel ranks, and ranks must be unique per directed channel.
func TestXYXChannelOrderTotal(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {16, 16}, {16, 5}, {3, 3}} {
		m := topology.NewSimplifiedMesh(topology.MeshSpec{
			W: dims[0], H: dims[1], CoreX: dims[0] / 2, MemX: dims[0] / 2})
		seen := map[int]bool{}
		for n := 0; n < m.NumNodes(); n++ {
			for p := 0; p < m.NumPorts(n); p++ {
				if _, ok := m.Link(n, p); !ok {
					continue
				}
				r, err := ChannelRank(m, n, p)
				if err != nil {
					t.Fatalf("%dx%d node %d port %d: %v", dims[0], dims[1], n, p, err)
				}
				if seen[r] {
					t.Fatalf("%dx%d: duplicate channel rank %d", dims[0], dims[1], r)
				}
				seen[r] = true
			}
		}
		for _, pr := range xyxPairs(m) {
			hops, err := Walk(m, XYX{}, pr[0], pr[1], m.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			last := -1
			for _, h := range hops {
				r, err := ChannelRank(m, h.From, h.Port)
				if err != nil {
					t.Fatal(err)
				}
				if r <= last {
					t.Fatalf("%dx%d route %d->%d: rank %d after %d (not increasing)",
						dims[0], dims[1], pr[0], pr[1], r, last)
				}
				last = r
			}
		}
	}
}

func TestXYXChannelOrderProperty(t *testing.T) {
	if err := quick.Check(func(w8, h8, s8, d8 uint8) bool {
		w := int(w8%12) + 2
		h := int(h8%12) + 2
		m := topology.NewSimplifiedMesh(topology.MeshSpec{W: w, H: h, CoreX: w / 2, MemX: w / 2})
		// Random bank -> core and core -> bank routes stay monotone.
		n := (int(s8)*int(d8) + int(s8)) % m.NumNodes()
		for _, pr := range [][2]int{{m.Core, n}, {n, m.Core}} {
			if pr[0] == pr[1] {
				continue
			}
			hops, err := Walk(m, XYX{}, pr[0], pr[1], m.NumNodes())
			if err != nil {
				return false
			}
			last := -1
			for _, hp := range hops {
				r, err := ChannelRank(m, hp.From, hp.Port)
				if err != nil || r <= last {
					return false
				}
				last = r
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpikeRouting(t *testing.T) {
	h := topology.NewHalo(topology.HaloSpec{Spikes: 16, Length: 16})
	alg := Spike{}
	hub := h.Hub()
	// Hub to every bank and back.
	for s := 0; s < 16; s++ {
		col := h.Column(s)
		for pos, n := range col {
			down, err := Walk(h, alg, hub, n, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(down) != pos+1 {
				t.Fatalf("hub->spike %d pos %d took %d hops, want %d", s, pos, len(down), pos+1)
			}
			up, err := Walk(h, alg, n, hub, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(up) != pos+1 {
				t.Fatalf("bank->hub took %d hops, want %d", len(up), pos+1)
			}
		}
	}
	// Cross-spike routes funnel through the hub.
	hops, err := Walk(h, alg, h.Column(2)[5], h.Column(9)[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	viaHub := false
	for _, hp := range hops {
		if hp.To == hub {
			viaHub = true
		}
	}
	if !viaHub {
		t.Fatal("cross-spike route must pass the hub")
	}
}

func TestHaloMRUOneHop(t *testing.T) {
	// The halo's raison d'etre: every MRU bank is one hop, equal latency.
	h := topology.NewHalo(topology.HaloSpec{Spikes: 16, Length: 5})
	for s := 0; s < 16; s++ {
		lat, err := PathLatency(h, Spike{}, h.Hub(), h.Column(s)[0])
		if err != nil {
			t.Fatal(err)
		}
		if lat != 1 {
			t.Fatalf("hub->MRU bank of spike %d latency = %d, want 1", s, lat)
		}
	}
	// Contrast: on a mesh the leftmost MRU bank is far from the core.
	m := mesh16()
	far, _ := PathLatency(m, XY{}, m.Core, m.NodeAt(0, 0))
	if far <= 1 {
		t.Fatalf("mesh corner MRU bank latency = %d, expected > 1", far)
	}
}

func TestPathLatencySumsWireDelays(t *testing.T) {
	m := topology.NewSimplifiedMesh(topology.MeshSpec{W: 16, H: 5, CoreX: 7, MemX: 7,
		HorizDelay: 3, VertDelay: []int{0, 1, 2, 2, 3}})
	// Core (7,0) to LRU bank of column 9: 2 horizontal (3 each) + 1+2+2+3.
	lat, err := PathLatency(m, XYX{}, m.Core, m.NodeAt(9, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*3 + 1 + 2 + 2 + 3; lat != want {
		t.Fatalf("latency = %d, want %d", lat, want)
	}
}

func TestForPicksDefaultAlgorithm(t *testing.T) {
	std := topology.MeshSpec{W: 8, H: 8, CoreX: 3, MemX: 4}
	cases := []struct {
		topo *topology.Topology
		want string
	}{
		{topology.NewMesh(std), "XY"},
		{topology.NewMinimalMesh(std), "XY"},
		{topology.NewSimplifiedMesh(std), "XYX"},
		{topology.NewHalo(topology.HaloSpec{Spikes: 8, Length: 8}), "Spike"},
	}
	for _, c := range cases {
		alg, err := For(c.topo)
		if err != nil {
			t.Fatalf("For(%s): %v", c.topo.Name, err)
		}
		if got := alg.Name(); got != c.want {
			t.Errorf("For(%s) = %s, want %s", c.topo.Name, got, c.want)
		}
	}
}

// TestAlgorithmRegistry pins the built-in algorithm keys (sorted) and
// that each resolves; the registry's generic behaviour is tested in
// internal/registry.
func TestAlgorithmRegistry(t *testing.T) {
	want := []string{"hier", "ring", "spike", "xy", "xyx"}
	if got := AlgorithmNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AlgorithmNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		if alg, err := AlgorithmByName(name); err != nil || alg == nil {
			t.Fatalf("AlgorithmByName(%q) = %v, %v", name, alg, err)
		}
	}
	if _, err := AlgorithmByName("no-such-algorithm"); err == nil {
		t.Fatal("expected error for unknown algorithm name")
	}
}

func TestXYOnMinimalMeshCacheTraffic(t *testing.T) {
	// Figure 4(b)'s minimal mesh must still route the cache communication
	// patterns under XY: requests along row 0, replies X-toward-core then
	// Y-, memory traffic along the bottom row.
	m := topology.NewMinimalMesh(topology.MeshSpec{W: 8, H: 8, CoreX: 3, MemX: 4})
	alg := XY{}
	for n := 0; n < m.NumNodes(); n++ {
		if n == m.Core {
			continue
		}
		// Replies: bank -> core must work (X toward core exists).
		if _, err := Walk(m, alg, n, m.Core, 64); err != nil {
			t.Fatalf("reply route from %d: %v", n, err)
		}
		// Bank -> memory: X toward memory column... only guaranteed via
		// bottom row and core/mem corridor; check LRU banks only.
		if m.Nodes[n].Y == m.H-1 {
			if _, err := Walk(m, alg, n, m.Mem, 64); err != nil {
				t.Fatalf("writeback route from %d: %v", n, err)
			}
		}
	}
	// Requests: core -> any bank via row 0 then down.
	for c := 0; c < m.Columns(); c++ {
		for _, n := range m.Column(c) {
			if n == m.Core {
				continue
			}
			if _, err := Walk(m, alg, m.Core, n, 64); err != nil {
				t.Fatalf("request route to %d: %v", n, err)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
