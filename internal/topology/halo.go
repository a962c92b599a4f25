package topology

func init() { Register("halo", newHalo) }

// newHalo builds a halo (Figure 6(c)/(d)): a hub router (hosting the core
// and the memory controller) with one port per spike, and each spike a
// chain of bank-bearing routers. Every MRU bank is exactly one hop from
// the hub, which is the topology's defining property. It reads W spikes,
// H banks per spike, VertDelay per spike position ([0] is the hub link)
// and MemWireDelay (the memory controller sits at the die centre: 16
// cycles in Design E, 9 in Design F).
func newHalo(p Params) (*Topology, error) {
	if err := firstErr(p.checkGrid("halo"),
		p.checkVertDelays(p.H, "topology: %d spike delays for length %d")); err != nil {
		return nil, err
	}
	b := NewBuilder("halo", "spike", p.W, p.H)
	// Node 0 is the hub: no bank, one port per spike, rendered centered
	// in an extra top row with the spikes hanging below it.
	b.RenderSize(p.W, p.H+1)
	hub := b.AddNode(-1, -1, p.W)
	b.PlaceAt(hub, p.W/2, 0)
	for s := 0; s < p.W; s++ {
		col := make([]NodeID, p.H)
		for i := range col {
			col[i] = b.AddNode(s, i, 2)
			b.PlaceAt(col[i], s, i+1)
		}
		b.Connect(hub, s, col[0], PortUp, p.vdelay(0))
		for i := 1; i < p.H; i++ {
			b.Connect(col[i-1], PortDown, col[i], PortUp, p.vdelay(i))
		}
		b.Column(col...)
	}
	b.Endpoints(hub, hub)
	b.Radial()
	b.MemWire(p.MemWireDelay)
	return b.Build()
}
