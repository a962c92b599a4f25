package topology

import "nucanet/internal/registry"

// Params names every knob a registered topology family may consume; a
// family reads what it needs and validates the rest. One parameter set
// covers the whole catalogue, so configurations (internal/config) carry a
// family name plus one Params value instead of per-family fields.
type Params struct {
	// W, H are the logical dimensions. For meshes W x H routers; for
	// halos W spikes of H banks; for rings W routers (H must be 1); for
	// concentrated meshes W columns of H banks packed Concentration per
	// router.
	W, H int
	// CoreX and MemX select the columns (or ring positions) hosting the
	// cache controller and the memory controller. Ignored by halos, whose
	// hub hosts both.
	CoreX, MemX int
	// HorizDelay is the wire delay of horizontal (or ring) links.
	HorizDelay int
	// VertDelay[y] is the per-row vertical link delay (meshes), the
	// per-position spike link delay (halos, [0] = hub link), or the
	// per-router-row delay (concentrated meshes). nil means 1 cycle
	// everywhere; a single element is broadcast.
	VertDelay []int
	// MemWireDelay is the extra per-direction wire delay between the
	// memory controller and the off-chip pins.
	MemWireDelay int
	// Concentration is how many consecutive column positions one router
	// hosts (concentrated meshes; 0/1 elsewhere).
	Concentration int
	// Chiplets splits a hierarchical topology into this many W/Chiplets-
	// column chiplet meshes stitched by an inter-chiplet bridge ring
	// (hierarchical topologies; 0 elsewhere).
	Chiplets int
}

// BuilderFunc constructs one topology family from its parameters.
type BuilderFunc func(Params) (*Topology, error)

var families = registry.New[BuilderFunc]("topology", "family", nil)

// Register adds a topology family under a unique name. Families
// self-register from init; registering a duplicate name is a programming
// error and panics.
func Register(name string, fn BuilderFunc) {
	if fn == nil {
		panic("topology: Register with nil builder")
	}
	families.Register(name, fn)
}

// Build constructs the named family from p.
func Build(name string, p Params) (*Topology, error) {
	fn, ok := families.Lookup(name)
	if !ok {
		return nil, families.Unknown(name, families.Sorted())
	}
	return fn(p)
}

// Names returns the registered family names, sorted.
func Names() []string { return families.Sorted() }
