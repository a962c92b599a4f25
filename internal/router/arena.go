package router

import (
	"nucanet/internal/bank"
	"nucanet/internal/flit"
	"nucanet/internal/slab"
)

// Arena carves the slices a router engine allocates at construction time
// out of large typed chunks (see internal/slab), so a batch of routers
// lays its VC rings, credit counters, and arbitration scratch side by
// side in memory instead of scattering thousands of small heap objects.
// Construction from an arena is behavior-identical to per-router
// allocation: every carved slice starts zeroed with the exact length and
// capacity the direct make call produced, and engines never grow a
// carved slice past its capacity (credit flow control bounds
// neighbor-fed VCs).
//
// Banks is the cache-bank construction arena riding along: one Arena per
// worker provisions everything a lane builds, and one Reset recycles it
// all.
//
// An Arena is single-goroutine state: share one per worker, never across
// workers. A nil *Arena falls back to plain allocation, so every existing
// construction path is unchanged.
type Arena struct {
	entries slab.Chunk[entry]
	rings   slab.Chunk[flitRing]
	vcs     slab.Chunk[vcState]
	ints    slab.Chunk[int]
	bools   slab.Chunk[bool]
	words   slab.Chunk[uint64]
	pkts    slab.Chunk[*flit.Packet]

	// Banks carves cache-bank state (frame slabs, set headers); see
	// bank.NewIn. Access through BankArena for nil-safety.
	Banks bank.Arena
}

// BankArena returns the embedded cache-bank arena, nil for a nil Arena.
func (a *Arena) BankArena() *bank.Arena {
	if a == nil {
		return nil
	}
	return &a.Banks
}

// Reset recycles every chunk for a fresh round of construction: all
// memory is zeroed and carving restarts from the first chunk, so no new
// allocations happen until usage exceeds the arena's high-water mark.
// Every slice previously carved from the arena is invalidated — callers
// must only Reset once nothing built from the arena is referenced
// (core.Engine.RunAll resets between lanes, whose instances are
// complete and dropped).
func (a *Arena) Reset() {
	a.entries.Reset()
	a.rings.Reset()
	a.vcs.Reset()
	a.ints.Reset()
	a.bools.Reset()
	a.words.Reset()
	a.pkts.Reset()
	a.Banks.Reset()
}

func (a *Arena) entrySlab(n int) []entry {
	if a == nil {
		return make([]entry, n)
	}
	return slab.Grab(&a.entries, n)
}

func (a *Arena) ringSlab(n int) []flitRing {
	if a == nil {
		return make([]flitRing, n)
	}
	return slab.Grab(&a.rings, n)
}

func (a *Arena) vcSlab(n int) []vcState {
	if a == nil {
		return make([]vcState, n)
	}
	return slab.Grab(&a.vcs, n)
}

func (a *Arena) intSlab(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return slab.Grab(&a.ints, n)
}

func (a *Arena) boolSlab(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return slab.Grab(&a.bools, n)
}

func (a *Arena) wordSlab(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return slab.Grab(&a.words, n)
}

func (a *Arena) pktSlab(n int) []*flit.Packet {
	if a == nil {
		return make([]*flit.Packet, n)
	}
	return slab.Grab(&a.pkts, n)
}
