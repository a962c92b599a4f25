package routing

import (
	"fmt"

	"nucanet/internal/topology"
)

// Hier routes on hierarchical multi-chiplet topologies (topology family
// "hier"): XYX-style inside a chiplet — vertical traffic climbs to row 0
// before moving laterally — with the lateral phase running on the bridge
// ring that stitches the chiplets. Row-0 routers and bridges project onto
// one ring of W + 2*Chiplets positions; lateral hops go clockwise
// (PortEast) unless that would cross the dateline link diametrically
// opposite the core, exactly like the plain Ring algorithm.
//
// Deadlock freedom is constructive (ChannelRank): routes are Y- climbs,
// then a single-direction ring run, then Y+ descents, and each phase's
// channels occupy a strictly increasing rank band — the dateline keeps
// each ring direction an open chain, so no cyclic channel dependency can
// form even with every core of a CMP injecting row-0 forwarding traffic.
type Hier struct{}

// Name implements Algorithm.
func (Hier) Name() string { return "Hier" }

// hierGeom captures the ring geometry the algorithm steers by.
type hierGeom struct {
	ring int // ring positions: W + 2*Chiplets
	dl   int // dateline position: the clockwise link dl -> dl+1 is excluded
}

func hierGeomOf(t *topology.Topology) hierGeom {
	ring := t.W + 2*topology.HierChiplets(t)
	dl := (topology.HierRingPos(t, t.Core) + ring/2) % ring
	return hierGeom{ring: ring, dl: dl}
}

// NextPort implements Algorithm. It is total: every (cur, dst) pair with
// cur != dst has a productive next hop, the property the deflection-
// livelock verifier demands of every node a packet can be deflected to.
func (Hier) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	if cur == dst {
		return 0, false
	}
	a, b := t.Nodes[cur], t.Nodes[dst]
	if a.Y >= 0 && b.Y >= 0 && a.X == b.X {
		// Same global column: pure vertical, as in the simplified mesh.
		if a.Y < b.Y {
			return topology.PortSouth, true
		}
		return topology.PortNorth, true
	}
	if a.Y > 0 {
		// Lateral movement happens on the ring row only: climb out first.
		return topology.PortNorth, true
	}
	// On the ring row (mesh row 0 or a bridge): dateline-avoiding step
	// toward the destination's ring projection.
	g := hierGeomOf(t)
	rpa := topology.HierRingPos(t, cur)
	rpb := topology.HierRingPos(t, dst)
	cw := (rpb - rpa + g.ring) % g.ring    // clockwise hops to dst
	toDL := (g.dl - rpa + g.ring) % g.ring // clockwise hops to the dateline link
	if toDL < cw {
		return topology.PortWest, true
	}
	return topology.PortEast, true
}

// ChannelRank implements Ranker, generalizing the XYX channel enumeration
// to the two-level fabric. Rank bands, low to high:
//
//	Y- channels:       x*H + (H-y), in [0, W*H) — climbs rank upward
//	clockwise ring:    W*H + hops past the dateline — an open chain
//	counter-clockwise: W*H + R + hops past the dateline — an open chain
//	Y+ channels:       W*H + 2R + x*H + y — descents rank downward
//
// Every route is a Y- climb, then hops in one ring direction (NextPort's
// direction choice is stable along a route), then a Y+ descent, so its
// channels climb the order strictly. The two dateline channels get their
// bands' maxima; no route uses them.
func (Hier) ChannelRank(t *topology.Topology, from topology.NodeID, port int) (int, error) {
	if !t.HasGrid() {
		return 0, fmt.Errorf("routing: hier ChannelRank needs the mesh grid, %s has none", t.Name)
	}
	n := t.Nodes[from]
	h := t.H
	g := hierGeomOf(t)
	baseRing := t.W * h
	baseYPlus := baseRing + 2*g.ring
	switch port {
	case topology.PortNorth:
		if n.Y <= 0 {
			return 0, fmt.Errorf("routing: no Y- channel leaving the ring row at node %d", from)
		}
		return n.X*h + (h - n.Y), nil
	case topology.PortEast: // clockwise: position rp -> rp+1
		if n.Y > 0 {
			return 0, fmt.Errorf("routing: ring channel outside the ring row at (%d,%d)", n.X, n.Y)
		}
		rp := topology.HierRingPos(t, from)
		return baseRing + (rp-(g.dl+1)+g.ring)%g.ring, nil
	case topology.PortWest: // counter-clockwise: position rp -> rp-1
		if n.Y > 0 {
			return 0, fmt.Errorf("routing: ring channel outside the ring row at (%d,%d)", n.X, n.Y)
		}
		rp := topology.HierRingPos(t, from)
		return baseRing + g.ring + (g.dl-rp+g.ring)%g.ring, nil
	case topology.PortSouth:
		if n.Y < 0 {
			return 0, fmt.Errorf("routing: no Y+ channel leaving bridge node %d", from)
		}
		return baseYPlus + n.X*h + n.Y, nil
	}
	return 0, fmt.Errorf("routing: unknown port %d", port)
}
