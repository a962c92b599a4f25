package cache

import (
	"nucanet/internal/router"
	"nucanet/internal/slab"
)

// Arena is one worker's construction arena for the systems it builds in
// turn: the router arena (routers, banks, send queues, the kernel and
// the packet free list) plus the cache layer's own state — the bank
// agents and concentrated routers' bank muxes, the controllers' column
// queues and the op free list. The ops a drained run retired serve the
// next run's accesses, so a warm worker builds and runs a system without
// growing any of them. One Reset recycles it all; see router.Arena.Reset
// for the aliasing contract. An Arena is single-goroutine state, and a
// nil *Arena allocates directly.
type Arena struct {
	net router.Arena

	agents slab.Chunk[agent]
	muxes  slab.Chunk[bankMux]
	cols   slab.Chunk[colState]
	reqs   slab.Chunk[*Request]
	active slab.Chunk[*op]
	ops    opPool
}

// RouterArena returns the embedded router arena, nil for a nil Arena.
func (a *Arena) RouterArena() *router.Arena {
	if a == nil {
		return nil
	}
	return &a.net
}

// Reset recycles the arena for a fresh round of construction. The op
// free list keeps its ops and restarts its accounting.
func (a *Arena) Reset() {
	a.net.Reset()
	a.agents.Reset()
	a.muxes.Reset()
	a.cols.Reset()
	a.reqs.Reset()
	a.active.Reset()
	a.ops.resetStats()
}

// agentChunk is how many agents a fresh chunk holds: Design A's bank
// count, so one chunk serves the largest catalogue design.
const agentChunk = 256

func (a *Arena) agentSlab(n int) []agent {
	if a == nil {
		return make([]agent, n)
	}
	return slab.GrabIn(&a.agents, n, agentChunk)
}

// muxChunk is how many bank muxes a fresh chunk holds: one per router of
// a concentrated design, and Design G has 16.
const muxChunk = 16

func (a *Arena) mux() *bankMux {
	if a == nil {
		return new(bankMux)
	}
	return &slab.GrabIn(&a.muxes, 1, muxChunk)[0]
}

func (a *Arena) colSlab(n int) []colState {
	if a == nil {
		return make([]colState, n)
	}
	return slab.Grab(&a.cols, n)
}

func (a *Arena) reqSlab(n int) []*Request {
	if a == nil {
		return make([]*Request, n)
	}
	return slab.Grab(&a.reqs, n)
}

func (a *Arena) activeSlab(n int) []*op {
	if a == nil {
		return make([]*op, n)
	}
	return slab.Grab(&a.active, n)
}

// opPool returns the arena's op free list (a fresh one for a nil arena).
func (a *Arena) opPool() *opPool {
	if a == nil {
		return new(opPool)
	}
	return &a.ops
}
