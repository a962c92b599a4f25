package topology

import (
	"fmt"
	"maps"
	"slices"
)

// Params is the one parameter set every topology family
// builds from, so configurations (internal/config) carry a family name
// plus one Params value instead of per-family fields. Each builder's doc
// comment names the fields it reads; a family ignores the others and
// rejects none of them.
type Params struct {
	// W, H are the logical dimensions. For meshes W x H routers; for
	// halos W spikes of H banks; for rings W routers (H must be 1); for
	// concentrated meshes W columns of H banks packed Concentration per
	// router.
	W, H int
	// CoreX and MemX select the columns (or ring positions) hosting the
	// cache controller and the memory controller.
	CoreX, MemX int
	// HorizDelay is the wire delay of horizontal (or ring) links; <= 0
	// means 1.
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
	// hosts (concentrated meshes).
	Concentration int
	// Chiplets splits a hierarchical topology into this many W/Chiplets-
	// column chiplet meshes stitched by an inter-chiplet bridge ring.
	Chiplets int
}

// vdelay is the delay of the vertical (or spike) link entering row i.
func (p Params) vdelay(i int) int {
	switch len(p.VertDelay) {
	case 0:
		return 1
	case 1:
		return p.VertDelay[0]
	}
	return p.VertDelay[i]
}

// hdelay is the delay of every horizontal (or ring) link.
func (p Params) hdelay() int { return max(p.HorizDelay, 1) }

// checkGrid rejects an empty W x H grid of the named kind.
func (p Params) checkGrid(kind string) error {
	if p.W < 1 || p.H < 1 {
		return fmt.Errorf("topology: bad %s %dx%d", kind, p.W, p.H)
	}
	return nil
}

// checkEnds rejects a core or memory controller column (or ring
// position, as what names it) outside [0, W).
func (p Params) checkEnds(what string) error {
	if p.CoreX < 0 || p.CoreX >= p.W || p.MemX < 0 || p.MemX >= p.W {
		return fmt.Errorf("topology: core/mem %s out of range", what)
	}
	return nil
}

// checkVertDelays rejects a VertDelay list of more than one element whose
// length is not rows; format receives the list length and rows.
func (p Params) checkVertDelays(rows int, format string) error {
	if len(p.VertDelay) > 1 && len(p.VertDelay) != rows {
		return fmt.Errorf(format, len(p.VertDelay), rows)
	}
	return nil
}

// firstErr returns the first non-nil error, so a builder reports its
// checks in the order it lists them.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BuilderFunc constructs one topology family from its parameters.
type BuilderFunc func(Params) (*Topology, error)

// families is the closed catalogue of topology families: a new family is
// one row here.
var families = map[string]BuilderFunc{
	"mesh":            newMesh,
	"simplified-mesh": newSimplifiedMesh,
	"minimal-mesh":    newMinimalMesh,
	"halo":            newHalo,
	"ring":            newRing,
	"cmesh":           newCMesh,
	"hier":            newHier,
}

// Build constructs the named family from p.
func Build(name string, p Params) (*Topology, error) {
	fn, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("topology: unknown family %q (registered: %v)", name, Names())
	}
	return fn(p)
}

// Names returns the family names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(families)) }

// MustBuild is Build for fixtures: it panics on an unknown family or
// malformed parameters.
func MustBuild(family string, p Params) *Topology {
	t, err := Build(family, p)
	if err != nil {
		panic(err.Error())
	}
	return t
}
