package cache

import (
	"nucanet/internal/bank"
	"nucanet/internal/flit"
)

// promotionEngine implements D-NUCA's generational promotion: a hit
// block swaps with the LRU block of the next-closer bank; a miss fills
// the MRU bank and recursively pushes every block one bank farther.
type promotionEngine struct{}

func (e *promotionEngine) Probe(a *agent, o *op, now int64) {
	lat := a.bk.Latency()
	way, hit := a.bk.Lookup(o.set, o.tag)
	if hit {
		fin := a.bookHit(o, now, lat.TagRepl)
		if a.pos == 0 {
			a.touchInPlace(o, way, fin)
			return
		}
		blk := a.removeWay(o.set, way)
		if o.write {
			blk.Dirty = true
		}
		a.sendData(o, fin, true)
		// The swap is a two-hop chain: the closer bank absorbs the hit
		// block and sends its LRU block into the hole left here.
		o.chain.blk = blk
		a.sendBank(fin, flit.ReplaceBlock, a.pos-1, o, &o.chain)
		return
	}
	if a.sys.Mode == Multicast {
		a.missNotify(o, now, lat)
		return
	}
	a.missForward(o, now, lat)
}

// Fill stores the block returning from memory into the MRU bank, pushing
// the chain that makes room one bank farther.
func (e *promotionEngine) Fill(a *agent, o *op, now int64) {
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)
	o.bankCycles += int64(lat.TagRepl)
	o.chain.blk = bank.Block{Tag: o.tag, Dirty: o.write}
	absorb(a, &o.chain, fin)
	a.sendData(o, fin, false)
}

func (e *promotionEngine) GoldenAccess(g *Golden, st [][]uint64, hb, hw int, tag uint64) (bool, int, uint64, bool) {
	if hb == 0 {
		g.touch(st, 0, hw)
		return true, 0, 0, false
	}
	if hb > 0 {
		// Swap with the next-closer bank: hit block becomes the MRU
		// of bank hb-1; that bank's LRU moves to bank hb. If the
		// closer bank has room (cold sets), the block just promotes.
		hitTag := g.remove(st, hb, hw)
		if len(st[hb-1]) < g.specs[hb-1].Ways {
			g.insertMRU(st, hb-1, hitTag)
			return true, hb, 0, false
		}
		victim := g.evictLRU(st, hb-1)
		g.insertMRU(st, hb-1, hitTag)
		g.insertMRU(st, hb, victim)
		return true, hb, 0, false
	}
	evicted, ok := goldenMissFill(g, st, tag)
	return false, -1, evicted, ok
}
