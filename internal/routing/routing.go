// Package routing implements the routing algorithms of the paper and the
// machinery that connects them to the network layer: standard
// dimension-ordered XY for full meshes, the deadlock-free XYX algorithm
// of Figure 5 for simplified meshes (horizontal links only in the core
// row), spike routing for halo networks, and dateline-avoiding ring
// routing for bidirectional rings.
//
// Algorithms are named in one table; a topology names the algorithm it is
// designed for (Topology.Routing) and For resolves it. The network layer
// consumes algorithms only through Precompute's flat next-port tables,
// and VerifyDeadlockFree (verify.go) checks any (topology, algorithm)
// pair for cyclic channel dependencies at network-construction time.
//
// XYX deadlock freedom is additionally established constructively:
// ChannelRank assigns every directed link a rank in a total order, and
// every XYX route follows strictly increasing ranks (property-tested for
// all source/destination pairs, and re-proved by the verifier's rank
// pass). The order is: all Y- (toward the core row) channels, then the
// row-0 X channels, then all Y+ channels; within a class, ranks grow in
// the direction of travel.
package routing

import (
	"fmt"
	"maps"
	"slices"

	"nucanet/internal/topology"
)

// Algorithm computes, hop by hop, the output port toward a destination.
// Implementations are stateless and safe for concurrent use.
type Algorithm interface {
	Name() string
	// NextPort returns the output port at cur on the route to dst.
	// ok is false if dst is unreachable from cur under this algorithm
	// (or cur == dst, which has no next hop).
	NextPort(t *topology.Topology, cur, dst topology.NodeID) (port int, ok bool)
}

// algorithms is the closed catalogue of routing algorithms, keyed by the
// name topologies reference via Topology.Routing: a new algorithm is one
// row here.
var algorithms = map[string]Algorithm{
	"xy":    XY{},
	"xyx":   XYX{},
	"spike": Spike{},
	"ring":  Ring{},
	"hier":  Hier{},
}

// AlgorithmByName resolves an algorithm key.
func AlgorithmByName(key string) (Algorithm, error) {
	alg, ok := algorithms[key]
	if !ok {
		return nil, fmt.Errorf("routing: unknown algorithm %q (registered: %v)", key, AlgorithmNames())
	}
	return alg, nil
}

// AlgorithmNames returns the algorithm keys, sorted.
func AlgorithmNames() []string { return slices.Sorted(maps.Keys(algorithms)) }

// For returns the algorithm a topology was designed for (its Routing
// annotation, filled in by the topology builder).
func For(t *topology.Topology) (Algorithm, error) {
	alg, err := AlgorithmByName(t.Routing)
	if err != nil {
		return nil, fmt.Errorf("routing: topology %s: %w", t.Name, err)
	}
	return alg, nil
}

// XY is dimension-ordered routing: X to the destination column, then Y.
// Deadlock-free on full meshes.
type XY struct{}

func (XY) Name() string { return "XY" }

func (XY) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	a, b := t.Nodes[cur], t.Nodes[dst]
	switch {
	case a.X < b.X:
		return topology.PortEast, true
	case a.X > b.X:
		return topology.PortWest, true
	case a.Y < b.Y:
		return topology.PortSouth, true
	case a.Y > b.Y:
		return topology.PortNorth, true
	}
	return 0, false
}

// XYX is the paper's Figure 5 algorithm for simplified meshes: downward
// traffic routes X first (in row 0, the only row with horizontal links)
// then Y+; upward traffic routes Y- first, reaching row 0 before moving
// in X. Deadlock-free by the channel enumeration in ChannelRank.
type XYX struct{}

func (XYX) Name() string { return "XYX" }

func (XYX) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	if cur == dst {
		return 0, false
	}
	a, b := t.Nodes[cur], t.Nodes[dst]
	if a.X != b.X && a.Y != 0 {
		// Horizontal links exist only in the core row: head there first.
		// (Routes stay Y- then X then Y+, matching ChannelRank's order.)
		return topology.PortNorth, true
	}
	switch {
	case a.X < b.X:
		return topology.PortEast, true
	case a.X > b.X:
		return topology.PortWest, true
	case a.Y < b.Y:
		return topology.PortSouth, true
	}
	return topology.PortNorth, true
}

// ChannelRank makes XYX a Ranker: the verifier re-derives the paper's
// deadlock-freedom proof by checking rank monotonicity over every edge
// of the channel-dependence graph.
func (XYX) ChannelRank(t *topology.Topology, from topology.NodeID, port int) (int, error) {
	return ChannelRank(t, from, port)
}

// Spike routes on halo networks: everything funnels through the hub.
type Spike struct{}

func (Spike) Name() string { return "Spike" }

func (Spike) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	if cur == dst {
		return 0, false
	}
	hub := t.Hub()
	if cur == hub {
		// Port s leads to spike s; dst.X is its spike.
		return t.Nodes[dst].X, true
	}
	a, b := t.Nodes[cur], t.Nodes[dst]
	if dst == hub || a.X != b.X || b.Y < a.Y {
		return topology.PortUp, true
	}
	return topology.PortDown, true
}

// Ring routes on bidirectional rings, avoiding the dateline: the link
// pair opposite the core (between positions dl and dl+1, where
// dl = CoreX + N/2 mod N) is excluded from every route, so each
// direction's channels form an open chain instead of a cycle and no
// cyclic channel dependency can exist — the link-level analogue of a VC
// dateline, suited to this simulator's single-class virtual channels.
// Routes go clockwise (PortEast) unless that would cross the dateline;
// core-to-bank and bank-to-core traffic is always minimal because the
// dateline sits diametrically opposite the core.
type Ring struct{}

func (Ring) Name() string { return "Ring" }

func (Ring) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	n := t.W
	a, b := t.Nodes[cur].X, t.Nodes[dst].X
	if a == b {
		return 0, false
	}
	dl := (t.Nodes[t.Core].X + n/2) % n
	cw := (b - a + n) % n    // clockwise hops to dst
	toDL := (dl - a + n) % n // clockwise hops to the dateline link
	if toDL < cw {
		// The clockwise path would use the dateline link dl -> dl+1;
		// go counter-clockwise (which provably avoids dl+1 -> dl).
		return topology.PortWest, true
	}
	return topology.PortEast, true
}

// Hop is one step of a walked route.
type Hop struct {
	From topology.NodeID
	Port int
	To   topology.NodeID
}

// Walk traces the route from src to dst under alg, validating that every
// hop uses an existing link. It errors if the route exceeds maxHops or
// uses a missing link — the test harness for topology/routing agreement.
func Walk(t *topology.Topology, alg Algorithm, src, dst topology.NodeID, maxHops int) ([]Hop, error) {
	var hops []Hop
	cur := src
	for cur != dst {
		if len(hops) >= maxHops {
			return nil, fmt.Errorf("routing: %s route %d->%d exceeds %d hops", alg.Name(), src, dst, maxHops)
		}
		p, ok := alg.NextPort(t, cur, dst)
		if !ok {
			return nil, fmt.Errorf("routing: %s has no route %d->%d at %d", alg.Name(), src, dst, cur)
		}
		l, ok := t.Link(cur, p)
		if !ok {
			return nil, fmt.Errorf("routing: %s route %d->%d uses missing link at node %d port %d",
				alg.Name(), src, dst, cur, p)
		}
		hops = append(hops, Hop{From: cur, Port: p, To: l.To})
		cur = l.To
	}
	return hops, nil
}

// PathLatency sums the wire delays along the route from src to dst, the
// zero-load network latency in cycles.
func PathLatency(t *topology.Topology, alg Algorithm, src, dst topology.NodeID) (int, error) {
	hops, err := Walk(t, alg, src, dst, t.NumNodes())
	if err != nil {
		return 0, err
	}
	total := 0
	for _, h := range hops {
		l, _ := t.Link(h.From, h.Port)
		total += l.Delay
	}
	return total, nil
}
