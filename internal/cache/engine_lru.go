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
	baseEngine
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
			e.startFastChain(a, o, fin)
		}
		return
	}
	if e.fast {
		// Only the MRU bank sees a bare request under unicast Fast-LRU;
		// the combined request+block unit travels on from here.
		fin := a.access(now, lat.TagRepl)
		o.bankCycles += int64(lat.TagRepl)
		e.forwardUnit(a, o, fin)
		return
	}
	a.missForward(o, now, lat)
}

// startFastChain initiates the Fast-LRU replacement chain at the MRU bank
// after a multicast miss there.
func (e *lruEngine) startFastChain(a *agent, o *op, fin int64) {
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

// forwardUnit evicts (if full) and forwards the unicast Fast-LRU
// request+block unit, or terminates at the LRU bank with a memory access.
func (e *lruEngine) forwardUnit(a *agent, o *op, fin int64) {
	m := &o.unit
	m.hasBlock = false
	if a.full(o.set) {
		m.blk = a.evictLRU(o.set)
		m.hasBlock = true
	}
	if a.pos < a.last {
		a.sendBank(fin, flit.ReplaceBlock, a.pos+1, o, m)
		return
	}
	// LRU bank: replacement is complete; the victim leaves the cache.
	if m.hasBlock {
		a.victimLeaves(o, m.blk, fin)
	}
	a.sendDone(o, fin)
	a.requestMemory(o, fin)
}

// Unit handles the unicast Fast-LRU request+block unit at banks > 0:
// one access tag-matches, stores the incoming block, and evicts onward.
func (e *lruEngine) Unit(a *agent, m *unitMsg, now int64) {
	o := m.o
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)
	o.bankCycles += int64(lat.TagRepl)

	incoming, hasIncoming := m.blk, m.hasBlock
	way, hit := a.bk.Lookup(o.set, o.tag)
	if hit {
		a.recordHit(o)
		blk := a.removeWay(o.set, way)
		if o.write {
			blk.Dirty = true
		}
		if hasIncoming {
			a.insert(o.set, incoming)
		}
		o.hitPos = a.pos
		a.sendData(o, fin, true)
		o.store.blk = blk
		a.sendBank(fin, flit.BlockToMRU, 0, o, &o.store)
		return
	}
	// Evict first, then absorb the incoming block, then travel on: the
	// unit message is reused in place for the next hop.
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

// Chain handles a plain replacement-chain block: the multicast Fast-LRU
// push and the classic-LRU shift after a hit or a miss fill.
func (e *lruEngine) Chain(a *agent, m *chainMsg, now int64) {
	chainStep(a, m, now)
}

// Store handles the hit block arriving at the MRU bank.
func (e *lruEngine) Store(a *agent, m *storeMsg, now int64) {
	o := m.o
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)
	if e.fast {
		// The frame was freed by the probe's eviction (or was free).
		a.insert(o.set, m.blk)
		a.sendDone(o, fin)
		return
	}
	fillEvictChain(a, o, m.blk, fin)
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
		fillEvictChain(a, o, blk, fin)
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

// chainStep is the policy-shared replacement-chain hop: absorb the block
// into this bank's hole (the hit bank or a non-full set) or evict onward.
func chainStep(a *agent, m *chainMsg, now int64) {
	o := m.o
	lat := a.bk.Latency()
	fin := a.access(now, lat.TagRepl)

	if o.hitPos == a.pos {
		// The hit bank's hole terminates the chain.
		a.insert(o.set, m.blk)
		a.sendDone(o, fin)
		return
	}
	if !a.full(o.set) {
		// A non-full bank absorbs the chain (cold sets only).
		a.insert(o.set, m.blk)
		a.sendDone(o, fin)
		return
	}
	victim := a.evictLRU(o.set)
	a.insert(o.set, m.blk)
	if a.pos == a.last {
		a.victimLeaves(o, victim, fin)
		a.sendDone(o, fin)
		return
	}
	m.blk = victim
	a.sendBank(fin, flit.ReplaceBlock, a.pos+1, o, m)
}

// fillEvictChain is the policy-shared miss fill for schemes that make
// room at fill time (classic LRU, Promotion, static): insert at the MRU
// bank, pushing a full set's victim down the replacement chain.
func fillEvictChain(a *agent, o *op, blk bank.Block, fin int64) {
	if !a.full(o.set) {
		a.insert(o.set, blk)
		a.sendDone(o, fin)
		return
	}
	victim := a.evictLRU(o.set)
	a.insert(o.set, blk)
	if a.last == 0 {
		a.victimLeaves(o, victim, fin)
		a.sendDone(o, fin)
		return
	}
	o.chain.blk = victim
	a.sendBank(fin, flit.ReplaceBlock, 1, o, &o.chain)
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
