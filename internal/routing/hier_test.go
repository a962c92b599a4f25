package routing

import (
	"testing"

	"nucanet/internal/topology"
)

func hierTestTopos() map[string]*topology.Topology {
	return map[string]*topology.Topology{
		// The H2 catalogue shape: dateline on an interior chiplet-1 link.
		"2x(8x4)": topology.MustBuild("hier", topology.Params{W: 16, H: 4, Chiplets: 2,
			CoreX: 3, MemX: 3, HorizDelay: 2, VertDelay: []int{2}}),
		// Narrow chiplets: every mesh column touches a bridge. CoreX 5
		// projects to ring position 10, so the dateline (position 2 -> 3)
		// is a mesh-to-bridge link — the asymmetric case where one open
		// chain ends on a bridge.
		"4x(2x2)": topology.MustBuild("hier", topology.Params{W: 8, H: 2, Chiplets: 4,
			CoreX: 5, MemX: 0}),
	}
}

// TestHierRouteProperties checks every ordered (src, dst) pair of each
// hier test topology — including the row-0 to row-0 pairs the CMP fabric
// adds when cores forward requests to remote home columns:
//
//  1. the route terminates over existing links;
//  2. it follows the phase discipline N* ring(E*|W*) S* with the ring
//     segment never mixing directions (the dateline-avoidance argument
//     needs a single-direction run);
//  3. ChannelRank strictly increases hop over hop, so the constructive
//     deadlock-freedom proof covers the full pair set, not just the
//     verifier's traffic pairs;
//  4. no hop crosses the dateline link pair diametrically opposite the
//     core's ring projection.
func TestHierRouteProperties(t *testing.T) {
	for name, topo := range hierTestTopos() {
		alg := Hier{}
		g := hierGeomOf(topo)
		n := topo.NumNodes()
		for src := topology.NodeID(0); int(src) < n; src++ {
			for dst := topology.NodeID(0); int(dst) < n; dst++ {
				if src == dst {
					continue
				}
				hops, err := Walk(topo, alg, src, dst, n)
				if err != nil {
					t.Fatalf("%s %d->%d: %v", name, src, dst, err)
				}
				const (
					phaseYMinus = iota
					phaseRing
					phaseYPlus
				)
				phase := phaseYMinus
				sawEast, sawWest := false, false
				prev := -1
				for _, h := range hops {
					switch h.Port {
					case topology.PortNorth:
						if phase != phaseYMinus {
							t.Fatalf("%s %d->%d: Y- hop after leaving the climb phase (%v)", name, src, dst, hops)
						}
					case topology.PortEast, topology.PortWest:
						if phase > phaseRing {
							t.Fatalf("%s %d->%d: ring hop after the descent began (%v)", name, src, dst, hops)
						}
						phase = phaseRing
						if h.Port == topology.PortEast {
							sawEast = true
						} else {
							sawWest = true
						}
						if sawEast && sawWest {
							t.Fatalf("%s %d->%d: route mixes ring directions (%v)", name, src, dst, hops)
						}
						rp := topology.HierRingPos(topo, h.From)
						if h.Port == topology.PortEast && rp == g.dl {
							t.Fatalf("%s %d->%d: clockwise hop crosses the dateline at position %d (%v)",
								name, src, dst, rp, hops)
						}
						if h.Port == topology.PortWest && rp == (g.dl+1)%g.ring {
							t.Fatalf("%s %d->%d: counter-clockwise hop crosses the dateline at position %d (%v)",
								name, src, dst, rp, hops)
						}
					case topology.PortSouth:
						phase = phaseYPlus
					default:
						t.Fatalf("%s %d->%d: unexpected port %d", name, src, dst, h.Port)
					}
					rank, err := alg.ChannelRank(topo, h.From, h.Port)
					if err != nil {
						t.Fatalf("%s %d->%d: hop %+v has no rank: %v", name, src, dst, h, err)
					}
					if rank <= prev {
						t.Fatalf("%s %d->%d: rank not increasing at hop %+v (%d after %d)",
							name, src, dst, h, rank, prev)
					}
					prev = rank
				}
			}
		}
	}
}

// TestHierPassesStaticVerifiers runs both whole-graph checks the
// simulator applies before accepting a design, on both hier geometries.
func TestHierPassesStaticVerifiers(t *testing.T) {
	for name, topo := range hierTestTopos() {
		if err := VerifyDeadlockFree(topo, Hier{}); err != nil {
			t.Errorf("%s: VerifyDeadlockFree: %v", name, err)
		}
		if err := VerifyDeflectionLivelockFree(topo, Hier{}, true); err != nil {
			t.Errorf("%s: VerifyDeflectionLivelockFree: %v", name, err)
		}
	}
}

// TestHierRanksEveryChannel: the deadlock verifier calls ChannelRank on
// every existing channel of the graph, so each real link must rank
// without error and no two channels may share a rank.
func TestHierRanksEveryChannel(t *testing.T) {
	for name, topo := range hierTestTopos() {
		seen := map[int]string{}
		for id := 0; id < topo.NumNodes(); id++ {
			for port := 0; port < topo.NumPorts(topology.NodeID(id)); port++ {
				if _, ok := topo.Link(topology.NodeID(id), port); !ok {
					continue
				}
				rank, err := (Hier{}).ChannelRank(topo, topology.NodeID(id), port)
				if err != nil {
					t.Fatalf("%s: channel (%d, port %d): %v", name, id, port, err)
				}
				key := name + "/" + string(rune(id)) + "/" + string(rune(port))
				if prev, dup := seen[rank]; dup {
					t.Errorf("%s: channels %s and %s share rank %d", name, prev, key, rank)
				}
				seen[rank] = key
			}
		}
	}
}
