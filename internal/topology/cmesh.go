package topology

import "fmt"

// newCMesh builds a concentrated mesh: a full W x rows router grid where
// every router hosts Concentration consecutive positions of its bank-set
// column, so a column of H banks needs only rows = H / Concentration
// routers. Concentration amortizes router and link area over several
// banks — the standard CMP NUCA layout. It reads W, H, Concentration
// (which must divide H), CoreX (core in the top router row), MemX (memory
// controller in the bottom router row), HorizDelay, VertDelay per router
// row and MemWireDelay.
func newCMesh(p Params) (*Topology, error) {
	if err := p.checkGrid("cmesh"); err != nil {
		return nil, err
	}
	if p.Concentration < 1 || p.H%p.Concentration != 0 {
		return nil, fmt.Errorf("topology: concentration %d does not divide %d ways",
			p.Concentration, p.H)
	}
	rows := p.H / p.Concentration
	if err := firstErr(p.checkEnds("column"),
		p.checkVertDelays(rows, "topology: %d vertical delays for %d router rows")); err != nil {
		return nil, err
	}
	b := NewBuilder("cmesh", "xy", p.W, rows)
	at := func(x, r int) NodeID { return r*p.W + x }
	for r := 0; r < rows; r++ {
		for x := 0; x < p.W; x++ {
			b.AddNode(x, r, 4)
		}
	}
	for r := 1; r < rows; r++ {
		for x := 0; x < p.W; x++ {
			b.Connect(at(x, r-1), PortSouth, at(x, r), PortNorth, p.vdelay(r))
		}
	}
	for r := 0; r < rows; r++ {
		for x := 0; x+1 < p.W; x++ {
			b.Connect(at(x, r), PortEast, at(x+1, r), PortWest, p.hdelay())
		}
	}
	for x := 0; x < p.W; x++ {
		col := make([]NodeID, 0, p.H)
		for r := 0; r < rows; r++ {
			for c := 0; c < p.Concentration; c++ {
				col = append(col, at(x, r))
			}
		}
		b.Column(col...)
	}
	b.Endpoints(at(p.CoreX, 0), at(p.MemX, rows-1))
	b.MemWire(p.MemWireDelay)
	return b.Build()
}
