package router

import (
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
// neighbor-fed VCs). The arena also keeps the packet free list, so the
// next run mints its packets into the capacity the previous one left.
//
// An Arena is single-goroutine state: share one per worker, never across
// workers. Every router of a network carves from the network's arena and
// mints its multicast replicas from the arena's packet free list.
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

	packets flit.PacketPool
}

// Packets returns the arena's packet free list. The packets a drained
// run returned to it serve the next run's gets; its accounting restarts
// at every Reset.
func (a *Arena) Packets() *flit.PacketPool { return &a.packets }

// Reset recycles every chunk for a fresh round of construction: memory
// is zeroed and carving restarts from the first chunk, so no new
// allocations happen until usage exceeds the arena's high-water mark.
// The packet free list keeps its packets.
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
	a.packets.ResetStats()
}

// The carves behind the engines' construction-time slices.
func (a *Arena) entrySlab(n int) []entry      { return slab.Grab(&a.entries, n) }
func (a *Arena) ringSlab(n int) []flitRing    { return slab.Grab(&a.rings, n) }
func (a *Arena) vcSlab(n int) []vcState       { return slab.Grab(&a.vcs, n) }
func (a *Arena) intSlab(n int) []int          { return slab.Grab(&a.ints, n) }
func (a *Arena) boolSlab(n int) []bool        { return slab.Grab(&a.bools, n) }
func (a *Arena) wordSlab(n int) []uint64      { return slab.Grab(&a.words, n) }
func (a *Arena) pktSlab(n int) []*flit.Packet { return slab.Grab(&a.pkts, n) }
func (a *Arena) linkSlab(n int) []*Router     { return slab.Grab(&a.links, n) }

// routerChunk is how many Router structs a fresh arena chunk holds: a
// Router is a few hundred bytes, so the default chunk of thousands would
// dwarf a batch's networks.
const routerChunk = 64

// router returns a zeroed Router to build in place.
func (a *Arena) router() *Router { return &slab.GrabIn(&a.routers, 1, routerChunk)[0] }
