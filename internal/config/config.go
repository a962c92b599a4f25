// Package config defines the six evaluated network designs of Table 3 and
// the Table 1 system parameters, and builds their topologies.
//
// Every design is a 16 MB L2: 256 x 64 KB banks (A, B, E), 64 x 256 KB
// banks (C), or 16 columns of {64,64,128,256,512} KB non-uniform banks
// (D, F). All keep 16 bank-set columns of total associativity 16 and 1024
// sets per bank, so one address map fits all.
//
// A design names its topology family (the topology package's catalogue)
// and carries one topology.Params value; Build resolves the name. Beyond
// Table 3, the catalogue carries extra registered-family designs (ring,
// concentrated mesh) reachable through DesignByID but excluded from
// Designs(), so paper table iterations stay exactly A-F.
package config

import (
	"fmt"
	"slices"
	"sync"

	"nucanet/internal/bank"
	"nucanet/internal/router"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// Design is one row of Table 3: a topology recipe plus the bank sizes of
// one column.
type Design struct {
	ID          string
	Description string

	// Topology names the registered topology family ("mesh",
	// "simplified-mesh", "minimal-mesh", "halo", "ring", "cmesh", or any
	// family the embedding program registered); Params feeds its builder.
	Topology string
	Params   topology.Params

	// Banks lists the bank specs of one column, MRU to LRU position.
	Banks []bank.Spec

	Router router.Config
}

// Build constructs the design's topology through the family catalogue.
func (d Design) Build() (*topology.Topology, error) {
	t, err := topology.Build(d.Topology, d.Params)
	if err != nil {
		return nil, fmt.Errorf("config %s: %w", d.ID, err)
	}
	return t, nil
}

// Columns returns the number of bank-set columns (Params.W for every
// registered family: mesh width, spike count, ring size, cmesh columns).
func (d Design) Columns() int { return d.Params.W }

// Ways returns the total bank-set associativity.
func (d Design) Ways() int {
	total := 0
	for _, b := range d.Banks {
		total += b.Ways
	}
	return total
}

// CapacityKB returns the total L2 capacity.
func (d Design) CapacityKB() int {
	per := 0
	for _, b := range d.Banks {
		per += b.SizeKB
	}
	return per * d.Columns()
}

// AddrMap returns the address decomposition for this design.
func (d Design) AddrMap() trace.AddrMap {
	return trace.AddrMap{Columns: d.Columns(), Sets: d.Banks[0].Sets()}
}

// uniform64 is sixteen 64 KB direct-mapped banks per column.
func uniform64(n int) []bank.Spec {
	out := make([]bank.Spec, n)
	for i := range out {
		out[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return out
}

// nonUniform is the Design D/F column: two 1-way 64 KB banks, one 2-way
// 128 KB, one 4-way 256 KB, one 8-way 512 KB — 16 ways total.
func nonUniform() []bank.Spec {
	return []bank.Spec{
		{SizeKB: 64, Ways: 1},
		{SizeKB: 64, Ways: 1},
		{SizeKB: 128, Ways: 2},
		{SizeKB: 256, Ways: 4},
		{SizeKB: 512, Ways: 8},
	}
}

// Designs returns Table 3: the six evaluated configurations.
func Designs() []Design {
	rc := router.DefaultConfig()
	return []Design{
		{
			ID: "A", Description: "16x16 mesh, uniform 64KB banks (baseline)",
			Topology: "mesh",
			Params: topology.Params{W: 16, H: 16, CoreX: 7, MemX: 8,
				HorizDelay: 1, VertDelay: []int{1}},
			Banks: uniform64(16), Router: rc,
		},
		{
			ID: "B", Description: "16x16 simplified mesh (XYX), uniform 64KB banks",
			Topology: "simplified-mesh",
			Params: topology.Params{W: 16, H: 16, CoreX: 7, MemX: 7,
				HorizDelay: 1, VertDelay: []int{1}},
			Banks: uniform64(16), Router: rc,
		},
		{
			ID: "C", Description: "16x4 simplified mesh, uniform 256KB banks",
			Topology: "simplified-mesh",
			Params: topology.Params{W: 16, H: 4, CoreX: 7, MemX: 7,
				HorizDelay: 2, VertDelay: []int{2}},
			Banks: []bank.Spec{
				{SizeKB: 256, Ways: 4}, {SizeKB: 256, Ways: 4},
				{SizeKB: 256, Ways: 4}, {SizeKB: 256, Ways: 4},
			},
			Router: rc,
		},
		{
			ID: "D", Description: "16x5 simplified mesh, non-uniform banks",
			Topology: "simplified-mesh",
			Params: topology.Params{W: 16, H: 5, CoreX: 7, MemX: 7,
				HorizDelay: 3, VertDelay: []int{0, 1, 2, 2, 3}},
			Banks: nonUniform(), Router: rc,
		},
		{
			ID: "E", Description: "16-spike halo, spike length 16, uniform 64KB banks",
			Topology: "halo",
			Params: topology.Params{W: 16, H: 16,
				VertDelay: []int{1}, MemWireDelay: 16},
			Banks: uniform64(16), Router: rc,
		},
		{
			ID: "F", Description: "16-spike halo, spike length 5, non-uniform banks",
			Topology: "halo",
			Params: topology.Params{W: 16, H: 5,
				VertDelay: []int{1, 1, 2, 2, 3}, MemWireDelay: 9},
			Banks: nonUniform(), Router: rc,
		},
	}
}

// ExtraDesigns returns registered-family configurations beyond Table 3:
// a bidirectional ring and a concentrated mesh. They run the same
// protocols, sweeps, and telemetry as A-F but stay out of Designs() so
// paper-table iterations reproduce exactly the published six rows.
func ExtraDesigns() []Design {
	rc := router.DefaultConfig()
	return []Design{
		{
			ID: "R", Description: "16-node bidirectional ring, one 64KB bank per node",
			Topology: "ring",
			Params: topology.Params{W: 16, H: 1, CoreX: 0, MemX: 8,
				HorizDelay: 1},
			Banks: uniform64(1), Router: rc,
		},
		{
			ID: "G", Description: "4x4 concentrated mesh, 4 banks per router, 64KB banks",
			Topology: "cmesh",
			Params: topology.Params{W: 4, H: 16, CoreX: 1, MemX: 2,
				HorizDelay: 1, VertDelay: []int{1}, Concentration: 4},
			Banks: uniform64(16), Router: rc,
		},
		{
			// CoreX 3 puts the ring dateline on an interior chiplet-1 mesh
			// link, so all four bridges carry through traffic.
			ID: "H2", Description: "2-chiplet hierarchical: two 8x4 meshes + 4-bridge ring, 256KB banks",
			Topology: "hier",
			Params: topology.Params{W: 16, H: 4, CoreX: 3, MemX: 3,
				HorizDelay: 2, VertDelay: []int{2}, Chiplets: 2},
			Banks: []bank.Spec{
				{SizeKB: 256, Ways: 4}, {SizeKB: 256, Ways: 4},
				{SizeKB: 256, Ways: 4}, {SizeKB: 256, Ways: 4},
			},
			Router: rc,
		},
	}
}

// designIDs is the catalogue's design ids, sorted, built on first use:
// the catalogue is constant.
var designIDs = sync.OnceValue(func() []string {
	var ids []string
	for _, d := range append(Designs(), ExtraDesigns()...) {
		ids = append(ids, d.ID)
	}
	slices.Sort(ids)
	return ids
})

// DesignIDs returns the ids of every catalogue design, sorted, without
// building the catalogue after the first call. The slice is shared:
// callers must not modify it.
func DesignIDs() []string { return designIDs() }

// DesignByID looks up a design: A-F from Table 3, or an extra
// registered-family design (R, G, H2). A miss names the catalogue.
func DesignByID(id string) (Design, error) {
	for _, d := range Designs() {
		if d.ID == id {
			return d, nil
		}
	}
	for _, d := range ExtraDesigns() {
		if d.ID == id {
			return d, nil
		}
	}
	var known []string
	for _, d := range append(Designs(), ExtraDesigns()...) {
		known = append(known, d.ID)
	}
	return Design{}, fmt.Errorf("config: unknown design %q (known: %v)", id, known)
}

// Resolve unifies the two ways a caller names a design — a catalogue id
// or an ad-hoc override — into one validated configuration. The override
// wins when non-nil (its contents are validated, catching malformed
// ad-hoc designs like the power-gating sweep's truncated columns before
// they reach the simulator); otherwise the id is looked up in the
// catalogue. The returned Design is a private copy: mutating it does not
// affect the caller's override or the catalogue.
func Resolve(id string, override *Design) (*Design, error) {
	var d Design
	if override != nil {
		d = *override
	} else {
		var err error
		if d, err = DesignByID(id); err != nil {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks a design's internal consistency: a buildable topology
// whose column shape matches the bank specs, uniform set counts, and
// structural graph invariants. Malformed designs surface here as errors
// (never panics), so Resolve rejects them before a simulator is built.
func (d Design) Validate() error {
	if len(d.Banks) == 0 {
		return fmt.Errorf("config %s: no banks", d.ID)
	}
	sets := d.Banks[0].Sets()
	for _, b := range d.Banks {
		if b.Sets() != sets {
			return fmt.Errorf("config %s: bank %v has %d sets, want %d", d.ID, b, b.Sets(), sets)
		}
	}
	topo, err := d.Build()
	if err != nil {
		return err
	}
	if len(d.Banks) != topo.Ways() {
		return fmt.Errorf("config %s: %d bank specs for %d column positions", d.ID, len(d.Banks), topo.Ways())
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("config %s: %v", d.ID, err)
	}
	eng, err := router.ByName(d.Router.Engine)
	if err != nil {
		return fmt.Errorf("config %s: %v", d.ID, err)
	}
	if eng.Supports != nil {
		if err := eng.Supports(topo, d.Router); err != nil {
			return fmt.Errorf("config %s: router engine %q cannot run this design: %v", d.ID, eng.Name, err)
		}
	}
	return nil
}
