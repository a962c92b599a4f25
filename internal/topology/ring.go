package topology

import "fmt"

func init() { Register("ring", newRing) }

// newRing builds a bidirectional ring: W routers in a cycle, one bank per
// router (single-way bank-set columns), exercising 2-port routers and the
// dateline-avoiding ring routing algorithm. It reads W, H (which must be
// at most 1), the CoreX and MemX ring positions of the two controllers,
// HorizDelay for every ring link and MemWireDelay.
func newRing(p Params) (*Topology, error) {
	if p.H > 1 {
		return nil, fmt.Errorf("topology: ring has one bank per node, H must be 1 (got %d)", p.H)
	}
	if p.W < 3 {
		return nil, fmt.Errorf("topology: ring needs >= 3 nodes, got %d", p.W)
	}
	if err := p.checkEnds("position"); err != nil {
		return nil, err
	}
	n := p.W
	b := NewBuilder("ring", "ring", n, 1)
	// Render the cycle folded into two rows: the first half left to
	// right on top, the second half right to left underneath, so render
	// neighbors are (mostly) ring neighbors.
	top := (n + 1) / 2
	b.RenderSize(top, 2)
	for i := 0; i < n; i++ {
		id := b.AddNode(i, 0, 2)
		if i < top {
			b.PlaceAt(id, i, 0)
		} else {
			b.PlaceAt(id, top-1-(i-top), 1)
		}
		b.Column(id)
	}
	for i := 0; i < n; i++ {
		b.Connect(i, PortEast, (i+1)%n, PortWest, p.hdelay())
	}
	b.Endpoints(p.CoreX, p.MemX)
	b.MemWire(p.MemWireDelay)
	return b.Build()
}
