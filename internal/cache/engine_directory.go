package cache

import (
	"fmt"
	"sort"

	"nucanet/internal/bank"
)

// OwnerStride separates per-owner tag spaces: owner i's blocks carry
// tags in [i*OwnerStride, (i+1)*OwnerStride). The CMP fabric relocates
// each core's trace into its own range with this stride, so a block's
// owner is recoverable from its tag alone — the property the directory
// policy's bookkeeping relies on.
const OwnerStride = uint64(1) << 32

// OwnerOf recovers the owning requester from a block tag.
func OwnerOf(tag uint64) uint64 { return tag / OwnerStride }

// directoryEngine is the CMP-aware policy: Fast-LRU's exact protocol and
// golden model (it delegates every message to the shared lruEngine), plus
// a directory of block ownership maintained alongside the replacement
// state. The directory attributes every fill, hit, and capacity eviction
// to the owning core, turning "whose working set displaced whose" from a
// guess into a measured matrix. It registers like any other policy; the
// agent and controller shells are untouched.
type directoryEngine struct {
	inner lruEngine
}

// Directory is the registered id of the ownership-tracking CMP policy.
// Its initializer's dependency on builtinPolicies orders registration
// after the built-ins, keeping their ids equal to the package constants.
var Directory = registerDirectory(builtinPolicies)

func registerDirectory(builtinsDone) Policy {
	return RegisterPolicy("directory", &directoryEngine{inner: lruEngine{fast: true}})
}

func (e *directoryEngine) Probe(a *agent, o *op, now int64) {
	if d := a.sys.Dir; d != nil {
		if _, hit := a.bk.Lookup(o.set, o.tag); hit {
			d.cols[a.col].hits[OwnerOf(o.tag)]++
		}
	}
	e.inner.Probe(a, o, now)
}

func (e *directoryEngine) Fill(a *agent, o *op, now int64) {
	if d := a.sys.Dir; d != nil {
		// The only path a new block enters the cache on: attribute the
		// fill and raise the owner's occupancy.
		own := OwnerOf(o.tag)
		d.cols[a.col].fills[own]++
		d.cols[a.col].live[own]++
	}
	e.inner.Fill(a, o, now)
}

func (e *directoryEngine) Unit(a *agent, m *unitMsg, now int64) {
	if d := a.sys.Dir; d != nil {
		if _, hit := a.bk.Lookup(m.o.set, m.o.tag); hit {
			d.cols[a.col].hits[OwnerOf(m.o.tag)]++
		}
	}
	e.inner.Unit(a, m, now)
}

func (e *directoryEngine) Chain(a *agent, m *chainMsg, now int64)     { e.inner.Chain(a, m, now) }
func (e *directoryEngine) Store(a *agent, m *storeMsg, now int64)     { e.inner.Store(a, m, now) }
func (e *directoryEngine) Promote(a *agent, m *promoteMsg, now int64) { e.inner.Promote(a, m, now) }
func (e *directoryEngine) Demote(a *agent, m *demoteMsg, now int64)   { e.inner.Demote(a, m, now) }

func (e *directoryEngine) GoldenAccess(g *Golden, st [][]uint64, hb, hw int, tag uint64) (bool, int, uint64, bool) {
	return e.inner.GoldenAccess(g, st, hb, hw, tag)
}

// DirStats is the per-system directory state. Columns accumulate
// independently and Report merges them in deterministic column order.
type DirStats struct {
	cols []dirCol
}

type dirCol struct {
	live  map[uint64]int64 // owner -> blocks currently resident
	fills map[uint64]int64 // owner -> miss fills
	hits  map[uint64]int64 // owner -> tag-match hits
	drops map[uint64]int64 // owner -> blocks evicted out of the cache
	cross map[OwnerPair]int64
}

// OwnerPair attributes one capacity eviction: Victim's block was pushed
// out of the cache by Evictor's access.
type OwnerPair struct{ Victim, Evictor uint64 }

// MarshalText encodes the pair as "victim<-evictor" so the eviction
// matrix survives the JSON round trip of the serving layer's result
// cache (JSON map keys must be text).
func (p OwnerPair) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d<-%d", p.Victim, p.Evictor)), nil
}

// UnmarshalText decodes MarshalText's form.
func (p *OwnerPair) UnmarshalText(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%d<-%d", &p.Victim, &p.Evictor)
	return err
}

func newDirStats(columns int) *DirStats {
	d := &DirStats{cols: make([]dirCol, columns)}
	for i := range d.cols {
		d.cols[i] = dirCol{
			live:  make(map[uint64]int64),
			fills: make(map[uint64]int64),
			hits:  make(map[uint64]int64),
			drops: make(map[uint64]int64),
			cross: make(map[OwnerPair]int64),
		}
	}
	return d
}

// seed (re)builds the occupancy baseline from the resident blocks —
// called after warm-up, whichever path produced it (per-block Warm or
// the cloned WarmImage of batch runs).
func (d *DirStats) seed(s *System) {
	for col := range d.cols {
		live := d.cols[col].live
		for o := range live {
			delete(live, o)
		}
		count := func(blk bank.Block) { live[OwnerOf(blk.Tag)]++ }
		for pos := 0; pos <= s.lastPos(); pos++ {
			bk := s.Bank(col, pos)
			for set := 0; set < bk.NumSets(); set++ {
				bk.EachBlock(set, count)
			}
		}
	}
}

// dropped records a victim leaving the cache, attributed to the access
// that pushed it out.
func (c *dirCol) dropped(victimTag, byTag uint64) {
	vo := OwnerOf(victimTag)
	c.drops[vo]++
	c.live[vo]--
	c.cross[OwnerPair{Victim: vo, Evictor: OwnerOf(byTag)}]++
}

// DirReport is the merged directory view: per-owner occupancy and the
// eviction-attribution matrix.
type DirReport struct {
	Owners []uint64 // every owner observed, ascending
	Live   map[uint64]int64
	Fills  map[uint64]int64
	Hits   map[uint64]int64
	Drops  map[uint64]int64
	Cross  map[OwnerPair]int64

	// SelfDrops and CrossDrops split the eviction matrix's diagonal from
	// its off-diagonal mass — the sharing-interference headline number.
	SelfDrops  int64
	CrossDrops int64
}

// Report merges the per-column accumulators.
func (d *DirStats) Report() DirReport {
	r := DirReport{
		Live:  make(map[uint64]int64),
		Fills: make(map[uint64]int64),
		Hits:  make(map[uint64]int64),
		Drops: make(map[uint64]int64),
		Cross: make(map[OwnerPair]int64),
	}
	owners := make(map[uint64]bool)
	for _, c := range d.cols {
		for o, n := range c.live {
			r.Live[o] += n
			owners[o] = true
		}
		for o, n := range c.fills {
			r.Fills[o] += n
			owners[o] = true
		}
		for o, n := range c.hits {
			r.Hits[o] += n
			owners[o] = true
		}
		for o, n := range c.drops {
			r.Drops[o] += n
			owners[o] = true
		}
		for p, n := range c.cross {
			r.Cross[p] += n
			if p.Victim == p.Evictor {
				r.SelfDrops += n
			} else {
				r.CrossDrops += n
			}
		}
	}
	for o := range owners {
		r.Owners = append(r.Owners, o)
	}
	sort.Slice(r.Owners, func(i, j int) bool { return r.Owners[i] < r.Owners[j] })
	return r
}

// Verify reconciles the directory against the ground truth: every
// owner's live count must equal the blocks of that owner actually
// resident in the banks. It returns the discrepancies found (nil when
// the directory is exact) — the protocol-invariant check the
// multi-requester conformance harness enforces.
func (d *DirStats) Verify(s *System) []string {
	actual := make(map[uint64]int64)
	for col := 0; col < s.AM.Columns; col++ {
		for pos := 0; pos <= s.lastPos(); pos++ {
			bk := s.Bank(col, pos)
			for set := 0; set < bk.NumSets(); set++ {
				for _, blk := range bk.Blocks(set) {
					actual[OwnerOf(blk.Tag)]++
				}
			}
		}
	}
	rep := d.Report()
	var violations []string
	for _, o := range rep.Owners {
		if rep.Live[o] != actual[o] {
			violations = append(violations,
				fmt.Sprintf("directory: owner %d live count %d, but %d blocks resident", o, rep.Live[o], actual[o]))
		}
	}
	for o, n := range actual {
		if rep.Live[o] == 0 && n != 0 {
			violations = append(violations,
				fmt.Sprintf("directory: owner %d untracked with %d blocks resident", o, n))
		}
	}
	return violations
}

// dropVictim records a victim leaving the cache entirely, attributed to
// the access that displaced it. Inert unless the directory policy is
// active; every policy's drop sites route through here so the directory
// needs no hooks of its own in the protocol flow.
func (a *agent) dropVictim(o *op, blk bank.Block) {
	if d := a.sys.Dir; d != nil {
		d.cols[a.col].dropped(blk.Tag, o.tag)
	}
}
