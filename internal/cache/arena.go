package cache

import (
	"nucanet/internal/bank"
	"nucanet/internal/network"
	"nucanet/internal/sim"
	"nucanet/internal/slab"
)

// Arena is one worker's construction arena for the systems it builds in
// turn: the network arena (the network and its tables, the routers and
// the packet free list), the run's kernel, plus the cache layer's own
// state — the systems with the latency record, directory and memory each
// holds, the controllers, the banks, the bank agents with their
// outboxes and concentrated routers' bank muxes, the controllers' column
// queues and the op free list. The ops a drained run retired serve the
// next run's accesses, and the next run registers its components into
// the kernel capacity the previous one left, so a warm worker builds and
// runs a system without growing any of them. One Reset recycles it all;
// see router.Arena.Reset for the aliasing contract. An Arena is
// single-goroutine state.
type Arena struct {
	net    network.Arena
	kernel sim.Kernel
	// banks carves the banks' frame slabs and fill counts (see
	// bank.NewIn); its frame slab is the one carve Reset does not zero
	// (see bank.Arena.Reset).
	banks bank.Arena

	// systems is rewound, not zeroed: Reset releases each slot (see
	// System.release), so its latency record, directory, memory and
	// controller list keep the storage an earlier run grew while the slot
	// pins nothing of that run.
	systems slab.Chunk[System]
	ctrls   slab.Chunk[Controller]
	agents  slab.Chunk[agent]
	muxes   slab.Chunk[bankMux]
	cols    slab.Chunk[colState]
	reqs    slab.Chunk[*Request]
	active  slab.Chunk[*op]
	outbox  slab.Chunk[network.Timed]
	ops     opPool
}

// Kernel returns the arena's kernel: empty at cycle 0 until the round's
// components register with it.
func (a *Arena) Kernel() *sim.Kernel { return &a.kernel }

// Reset recycles the arena for a fresh round of construction. The
// kernel is emptied; the op free list keeps its ops and restarts its
// accounting.
func (a *Arena) Reset() {
	a.net.Reset()
	a.kernel.Reset()
	a.banks.Reset()
	a.systems.RewindEach((*System).release)
	a.ctrls.Reset()
	a.agents.Reset()
	a.muxes.Reset()
	a.cols.Reset()
	a.reqs.Reset()
	a.active.Reset()
	a.outbox.Reset()
	a.ops.resetStats()
}

// system returns a fresh system slot, or one an earlier round left
// released, for NewPrebuilt to renew in place. A fresh controller chunk
// holds an 8-core fabric's controllers.
func (a *Arena) system() *System         { return &slab.GrabIn(&a.systems, 1, 1)[0] }
func (a *Arena) controller() *Controller { return &slab.GrabIn(&a.ctrls, 1, 8)[0] }

// agentChunk is how many agents a fresh chunk holds: Design A's bank
// count, so one chunk serves the largest catalogue design.
const agentChunk = 256

func (a *Arena) agentSlab(n int) []agent { return slab.GrabIn(&a.agents, n, agentChunk) }

// muxChunk is how many bank muxes a fresh chunk holds: one per router of
// a concentrated design, and Design G has 16.
const muxChunk = 16

func (a *Arena) mux() *bankMux { return &slab.GrabIn(&a.muxes, 1, muxChunk)[0] }

// The carves behind the controllers' column queues and windows.
func (a *Arena) colSlab(n int) []colState { return slab.Grab(&a.cols, n) }
func (a *Arena) reqSlab(n int) []*Request { return slab.Grab(&a.reqs, n) }
func (a *Arena) activeSlab(n int) []*op   { return slab.Grab(&a.active, n) }

// sendQueueCap is a bank agent's outbox capacity: the deepest queue an
// agent reaches on the benchmark's runs (Designs A, F and H2), so the
// outboxes do not regrow during a run.
const sendQueueCap = 4

// outboxSlab returns an agent outbox's storage, room for n packets.
// Queueing past n moves the outbox to the heap, leaving the arena intact.
func (a *Arena) outboxSlab(n int) []network.Timed { return slab.Grab(&a.outbox, n) }
