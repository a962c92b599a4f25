package router

import (
	"nucanet/internal/bank"
	"nucanet/internal/flit"
	"nucanet/internal/sim"
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
// all. Its frame slab is the one carve that is not zeroed (see
// bank.Arena.Reset). The arena also keeps the run's kernel and packet
// free list, so the next run registers its components and mints its
// packets into the capacity the previous one left.
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
	routers slab.Chunk[Router]
	links   slab.Chunk[*Router]
	timed   slab.Chunk[flit.Timed]

	kernel  sim.Kernel
	packets flit.PacketPool

	// Banks carves cache-bank state (frame slabs, fill counts); see
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

// Kernel returns the arena's kernel (a fresh one for a nil arena): empty
// at cycle 0 until the round's components register with it.
func (a *Arena) Kernel() *sim.Kernel {
	if a == nil {
		return sim.NewKernel()
	}
	return &a.kernel
}

// Packets returns the arena's packet free list (a fresh one for a nil
// arena). The packets a drained run returned to it serve the next run's
// gets; its accounting restarts at every Reset.
func (a *Arena) Packets() *flit.PacketPool {
	if a == nil {
		return new(flit.PacketPool)
	}
	return &a.packets
}

// Reset recycles every chunk for a fresh round of construction: memory
// is zeroed (bank frames aside) and carving restarts from the first
// chunk, so no new allocations happen until usage exceeds the arena's
// high-water mark. The kernel is emptied and the packet free list keeps
// its packets.
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
	a.routers.Reset()
	a.links.Reset()
	a.timed.Reset()
	a.kernel.Reset()
	a.packets.ResetStats()
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

// routerChunk is how many Router structs a fresh arena chunk holds: a
// Router is a few hundred bytes, so the default chunk of thousands would
// dwarf a batch's networks.
const routerChunk = 64

// router returns a zeroed Router to build in place.
func (a *Arena) router() *Router {
	if a == nil {
		return new(Router)
	}
	return &slab.GrabIn(&a.routers, 1, routerChunk)[0]
}

func (a *Arena) linkSlab(n int) []*Router {
	if a == nil {
		return make([]*Router, n)
	}
	return slab.Grab(&a.links, n)
}

// TimedSlab returns an empty send queue with room for n scheduled
// packets, carved from the arena (allocated directly for a nil arena).
// Appending past n moves the queue to the heap, leaving the arena intact.
func (a *Arena) TimedSlab(n int) []flit.Timed {
	if a == nil {
		return make([]flit.Timed, 0, n)
	}
	return slab.Grab(&a.timed, n)[:0]
}
