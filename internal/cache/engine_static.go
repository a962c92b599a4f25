package cache

import "nucanet/internal/bank"

// staticEngine is the no-migration baseline (S-NUCA-style placement with
// bank-local LRU): a hit promotes the block within its own bank only —
// no inter-bank movement, no replacement chain — while a miss fills the
// MRU bank and pushes down like classic LRU. It is the paper's natural
// "is migration worth its traffic?" control, and the smallest engine: it
// touches neither the agent nor the controller shell.
type staticEngine struct {
	baseEngine
}

func (e *staticEngine) Probe(a *agent, o *op, now int64) {
	lat := a.bk.Latency()
	way, hit := a.bk.Lookup(o.set, o.tag)
	if hit {
		// Promote within the bank; no blocks cross the network.
		fin := a.bookHit(o, now, lat.TagRepl)
		a.touchInPlace(o, way, fin)
		return
	}
	if a.sys.Mode == Multicast {
		a.missNotify(o, now, lat)
		return
	}
	a.missForward(o, now, lat)
}

// Chain handles the miss-fill shift; hits never chain under static
// placement.
func (e *staticEngine) Chain(a *agent, m *chainMsg, now int64) {
	chainStep(a, m, now)
}

// Fill stores the block returning from memory into the MRU bank.
func (e *staticEngine) Fill(a *agent, o *op, now int64) {
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)
	o.bankCycles += int64(lat.TagRepl)
	fillEvictChain(a, o, bank.Block{Tag: o.tag, Dirty: o.write}, fin)
	a.sendData(o, fin, false)
}

func (e *staticEngine) GoldenAccess(g *Golden, st [][]uint64, hb, hw int, tag uint64) (bool, int, uint64, bool) {
	if hb >= 0 {
		g.touch(st, hb, hw)
		return true, hb, 0, false
	}
	evicted, ok := goldenMissFill(g, st, tag)
	return false, -1, evicted, ok
}
