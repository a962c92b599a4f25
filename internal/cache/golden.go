package cache

import (
	"nucanet/internal/bank"
)

// Golden is the functional reference model of a bank-set column hierarchy:
// it applies the replacement policies to plain slices with no timing or
// network, and must agree exactly with the protocol simulation on every
// hit/miss decision and on final contents. Property tests and the
// conformance harness enforce this.
//
// The model is hierarchical: each bank keeps its own MRU-to-LRU order; a
// block leaving a bank is that bank's LRU, a block entering becomes its
// MRU. With 1-way banks this degenerates to exact set-wide LRU (for the
// LRU and Fast-LRU policies) — and Fast-LRU is functionally identical to
// LRU by construction, only its timing differs.
//
// The policy-specific semantics live in the same PolicyEngine that
// drives the timing simulation (GoldenAccess), so every policy brings
// its own reference model.
type Golden struct {
	eng   PolicyEngine
	specs []bank.Spec
	sets  int
	// state[col*sets+set][bankPos] = tags, MRU first within the bank.
	state [][][]uint64
}

// NewGolden builds an empty reference model for a column layout. It
// panics on an unknown policy (test-facing construction).
func NewGolden(policy Policy, specs []bank.Spec, cols, sets int) *Golden {
	g := &Golden{eng: policy.engine(), specs: specs, sets: sets}
	g.state = make([][][]uint64, cols*sets)
	for i := range g.state {
		g.state[i] = make([][]uint64, len(specs))
	}
	return g
}

// Warm fills a set with tags in MRU-to-LRU order, distributing them over
// the banks by distance (closest bank gets the most recent tags).
func (g *Golden) Warm(col, set int, tags []uint64) {
	st := g.state[col*g.sets+set]
	i := 0
	for b, spec := range g.specs {
		for w := 0; w < spec.Ways && i < len(tags); w++ {
			st[b] = append(st[b], tags[i])
			i++
		}
	}
}

// Access applies one reference to the model and returns whether it hit and
// at which bank position (way -1 on miss). Evicted is the victim tag that
// left the cache entirely (valid only when evictedOK). The tag match is
// policy-independent; the state transition is the engine's.
func (g *Golden) Access(col, set int, tag uint64) (hit bool, bankPos int, evicted uint64, evictedOK bool) {
	st := g.state[col*g.sets+set]

	// Tag match across the column.
	hb, hw := -1, -1
	for b := range st {
		for w, t := range st[b] {
			if t == tag {
				hb, hw = b, w
				break
			}
		}
		if hb >= 0 {
			break
		}
	}
	return g.eng.GoldenAccess(g, st, hb, hw, tag)
}

// Contents returns the per-bank tags of a set, MRU first within each bank.
func (g *Golden) Contents(col, set int) [][]uint64 {
	st := g.state[col*g.sets+set]
	out := make([][]uint64, len(st))
	for b := range st {
		out[b] = append([]uint64(nil), st[b]...)
	}
	return out
}

func (g *Golden) touch(st [][]uint64, b, w int) {
	tag := st[b][w]
	copy(st[b][1:w+1], st[b][:w])
	st[b][0] = tag
}

func (g *Golden) remove(st [][]uint64, b, w int) uint64 {
	tag := st[b][w]
	st[b] = append(st[b][:w], st[b][w+1:]...)
	return tag
}

func (g *Golden) evictLRU(st [][]uint64, b int) uint64 {
	n := len(st[b])
	tag := st[b][n-1]
	st[b] = st[b][:n-1]
	return tag
}

func (g *Golden) insertMRU(st [][]uint64, b int, tag uint64) {
	st[b] = append(st[b], 0)
	copy(st[b][1:], st[b])
	st[b][0] = tag
}
