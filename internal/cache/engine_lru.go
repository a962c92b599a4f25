package cache

import (
	"nucanet/internal/bank"
	"nucanet/internal/flit"
)

// lruEngine implements exact hierarchical LRU ordering in its two
// protocol forms: the classic scheme (fast == false; the hit block moves
// to the MRU bank and every closer block shifts one bank farther after
// the search) and the paper's Fast-LRU (fast == true; each bank evicts
// during its tag-match access, overlapping replacement with the search).
// Both maintain identical ordering — only the message flow and timing
// differ — so they share one engine and one golden-model semantics.
type lruEngine struct {
	fast bool
}

func (e *lruEngine) Probe(a *agent, o *op, now int64) {
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
		if e.fast && a.sys.Mode == Multicast {
			// Two chain drains must complete: the hit block landing
			// at the MRU bank, and the push chain terminating here.
			o.chainNeeded = 2
		}
		o.store.blk = blk
		a.sendBank(fin, flit.BlockToMRU, 0, o, &o.store)
		return
	}

	// Miss at this bank.
	if a.sys.Mode == Multicast {
		fin := a.missNotify(o, now, lat)
		if e.fast && a.pos == 0 {
			startFastChain(a, o, fin)
		}
		return
	}
	if e.fast {
		// Only the MRU bank sees a bare request under unicast Fast-LRU;
		// the combined request+block unit travels on from here.
		fin := a.access(now, lat.TagRepl)
		o.bankCycles += int64(lat.TagRepl)
		forwardUnit(a, &o.unit, fin)
		return
	}
	a.missForward(o, now, lat)
}

// startFastChain initiates the Fast-LRU replacement chain at the MRU bank
// after a multicast miss there.
func startFastChain(a *agent, o *op, fin int64) {
	if !a.full(o.set) {
		// Nothing to push; the chain is trivially complete and the
		// frame for the eventual fill already exists.
		a.sendDone(o, fin)
		return
	}
	blk := a.evictLRU(o.set)
	if a.last == 0 {
		// Single-bank column: the victim leaves the cache.
		a.victimLeaves(o, blk, fin)
		a.sendDone(o, fin)
		return
	}
	o.chain.blk = blk
	a.sendBank(fin, flit.ReplaceBlock, 1, o, &o.chain)
}

// unitStep handles the unicast Fast-LRU request+block unit at banks > 0:
// one access tag-matches, stores the incoming block, and evicts onward.
func unitStep(a *agent, m *unitMsg, now int64) {
	o := m.o
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)
	o.bankCycles += int64(lat.TagRepl)

	way, hit := a.bk.Lookup(o.set, o.tag)
	if !hit {
		forwardUnit(a, m, fin)
		return
	}
	a.recordHit(o)
	blk := a.removeWay(o.set, way)
	if o.write {
		blk.Dirty = true
	}
	if m.hasBlock {
		a.insert(o.set, m.blk)
	}
	o.hitPos = a.pos
	a.sendData(o, fin, true)
	o.store.blk = blk
	a.sendBank(fin, flit.BlockToMRU, 0, o, &o.store)
}

// forwardUnit evicts this bank's LRU block (if the set is full), absorbs
// the block the unit carried in (if any), and sends the unit on with the
// victim, reusing m; at the LRU bank the victim leaves the cache and the
// search ends with a memory access.
func forwardUnit(a *agent, m *unitMsg, fin int64) {
	o := m.o
	incoming, hasIncoming := m.blk, m.hasBlock
	m.hasBlock = false
	if a.full(o.set) {
		m.blk = a.evictLRU(o.set)
		m.hasBlock = true
	}
	if hasIncoming {
		a.insert(o.set, incoming)
	}
	if a.pos < a.last {
		a.sendBank(fin, flit.ReplaceBlock, a.pos+1, o, m)
		return
	}
	if m.hasBlock {
		a.victimLeaves(o, m.blk, fin)
	}
	a.sendDone(o, fin)
	a.requestMemory(o, fin)
}

// Fill stores the block returning from memory into the MRU bank.
func (e *lruEngine) Fill(a *agent, o *op, now int64) {
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)
	o.bankCycles += int64(lat.TagRepl)
	blk := bank.Block{Tag: o.tag, Dirty: o.write}
	if e.fast {
		// The probe's eviction chain already made room everywhere.
		a.insert(o.set, blk)
	} else {
		o.chain.blk = blk
		absorb(a, &o.chain, fin)
	}
	a.sendData(o, fin, false)
}

func (e *lruEngine) GoldenAccess(g *Golden, st [][]uint64, hb, hw int, tag uint64) (bool, int, uint64, bool) {
	if hb == 0 {
		g.touch(st, 0, hw)
		return true, 0, 0, false
	}
	if hb > 0 {
		// Hit block to MRU bank; banks 0..hb-1 shift one farther;
		// the shifted-out block of hb-1 fills the hole at hb. A
		// non-full bank absorbs the chain early (cold sets only).
		carry := g.remove(st, hb, hw)
		for b := 0; b <= hb; b++ {
			if b == hb || len(st[b]) < g.specs[b].Ways {
				g.insertMRU(st, b, carry)
				break
			}
			victim := g.evictLRU(st, b)
			g.insertMRU(st, b, carry)
			carry = victim
		}
		return true, hb, 0, false
	}
	evicted, ok := goldenMissFill(g, st, tag)
	return false, -1, evicted, ok
}

// goldenMissFill is the shared reference-model miss: the new block
// becomes the MRU of bank 0 and every full bank pushes its LRU one bank
// farther; the last bank's victim leaves the cache.
func goldenMissFill(g *Golden, st [][]uint64, tag uint64) (evicted uint64, evictedOK bool) {
	carry := tag
	for b := range st {
		full := len(st[b]) >= g.specs[b].Ways
		var victim uint64
		if full {
			victim = g.evictLRU(st, b)
		}
		g.insertMRU(st, b, carry)
		if !full {
			return 0, false
		}
		carry = victim
	}
	return carry, true
}
