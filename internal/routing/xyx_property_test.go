package routing

import (
	"testing"

	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// TestXYXRouteProperties property-tests XYX on a 16x16 simplified mesh:
// for random (src, dst) pairs it asserts that every route
//
//  1. is minimal: |dy| within a column, src.Y + |dx| + dst.Y when the
//     route must transit the core row (the only row with X links);
//  2. follows the X-then-Y-then-X phase discipline of Figure 5 — the
//     port sequence factors into a Y- prefix, one X segment that never
//     mixes East and West, and a Y+ suffix, with no phase re-entered;
//  3. never takes a forbidden turn: ChannelRank (the constructive
//     deadlock-freedom argument) must strictly increase hop over hop, so
//     no cyclic channel dependency can form.
//
// Pairs are drawn from the traffic the simplified mesh actually carries:
// same-column routes plus routes with an endpoint in the core row.
func TestXYXRouteProperties(t *testing.T) {
	topo := topology.MustBuild("simplified-mesh", topology.Params{W: 16, H: 16, CoreX: 7, MemX: 7})
	alg := XYX{}
	rng := sim.NewRNG(20260806)
	const pairs = 4000
	tested := 0
	for tested < pairs {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		a, b := topo.Nodes[src], topo.Nodes[dst]
		if src == dst {
			continue
		}
		// Off-row endpoints in different columns have no X channel to
		// cross on; the cache protocol never generates such pairs.
		if a.X != b.X && a.Y != 0 && b.Y != 0 {
			continue
		}
		tested++

		hops, err := Walk(topo, alg, src, dst, topo.NumNodes())
		if err != nil {
			t.Fatalf("%d->%d: %v", src, dst, err)
		}

		// Property 1: minimality.
		want := abs(a.Y - b.Y)
		if a.X != b.X {
			want = a.Y + abs(a.X-b.X) + b.Y
		}
		if len(hops) != want {
			t.Fatalf("%d->%d: route has %d hops, minimal is %d", src, dst, len(hops), want)
		}

		// Property 2: phase order N* (E*|W*) S*, phases never re-entered.
		const (
			phaseYMinus = iota
			phaseX
			phaseYPlus
		)
		phase := phaseYMinus
		sawEast, sawWest := false, false
		for _, h := range hops {
			switch h.Port {
			case topology.PortNorth:
				if phase != phaseYMinus {
					t.Fatalf("%d->%d: Y- hop after leaving the Y- phase (route %v)", src, dst, hops)
				}
			case topology.PortEast, topology.PortWest:
				if phase > phaseX {
					t.Fatalf("%d->%d: X hop after the Y+ phase began (route %v)", src, dst, hops)
				}
				phase = phaseX
				if h.Port == topology.PortEast {
					sawEast = true
				} else {
					sawWest = true
				}
				if sawEast && sawWest {
					t.Fatalf("%d->%d: route mixes East and West (route %v)", src, dst, hops)
				}
			case topology.PortSouth:
				phase = phaseYPlus
			default:
				t.Fatalf("%d->%d: unexpected port %d", src, dst, h.Port)
			}
		}

		// Property 3: strictly increasing channel ranks — the forbidden
		// turns are exactly those that would break monotonicity.
		prev := -1
		for _, h := range hops {
			rank, err := ChannelRank(topo, h.From, h.Port)
			if err != nil {
				t.Fatalf("%d->%d: hop %+v has no rank: %v", src, dst, h, err)
			}
			if rank <= prev {
				t.Fatalf("%d->%d: rank not increasing at hop %+v (%d after %d); deadlock-freedom violated",
					src, dst, h, rank, prev)
			}
			prev = rank
		}
	}
}
