package cache

import (
	"fmt"
	"slices"

	"nucanet/internal/bank"
	"nucanet/internal/slab"
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
// guess into a measured matrix. Like every policy it is one row of the
// policies table; the agent and controller shells are untouched.
type directoryEngine struct {
	inner lruEngine
}

func (e *directoryEngine) Probe(a *agent, o *op, now int64) {
	if d := a.sys.Dir; d != nil {
		if _, hit := a.bk.Lookup(o.set, o.tag); hit {
			d.hit(a.col, o.tag)
		}
	}
	e.inner.Probe(a, o, now)
}

func (e *directoryEngine) Fill(a *agent, o *op, now int64) {
	if d := a.sys.Dir; d != nil {
		d.fill(a.col, o.tag)
	}
	e.inner.Fill(a, o, now)
}

func (e *directoryEngine) Unit(a *agent, m *unitMsg, now int64) {
	if d := a.sys.Dir; d != nil {
		if _, hit := a.bk.Lookup(m.o.set, m.o.tag); hit {
			d.hit(a.col, m.o.tag)
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
//
// Owners index the counters densely: a CMP run has one owner per core,
// so every counter is a slice entry, not a map slot. n is the owner
// count the slices cover; it is sized from the warm state and grows the
// first time a new owner's tag shows up.
type DirStats struct {
	cols []dirCol
	n    int
	// backing holds every column's counters, column c at
	// [c*stride, (c+1)*stride) with stride 4n + n*n; the dirCol slices
	// view into it.
	backing []int64
	// seen marks the owners the merged report lists under Live: resident
	// at warm-up, or filled since.
	seen []bool
}

// dirCol is one column's counters, each indexed by owner; cross is the
// n x n eviction matrix, [victim*n + evictor].
type dirCol struct {
	live  []int64 // blocks currently resident
	fills []int64 // miss fills
	hits  []int64 // tag-match hits
	drops []int64 // blocks evicted out of the cache
	cross []int64
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

// reset empties the directory for a system of the given columns, one
// owner wide, keeping its storage.
func (d *DirStats) reset(columns int) {
	d.cols = slab.Reuse(d.cols, columns)
	d.clearFor(1)
}

// stride is the length of one column's counters for n owners.
func stride(n int) int { return 4*n + n*n }

// layout lays every column's counters out for n owners over backing,
// which holds len(d.cols)*stride(n) counters.
func (d *DirStats) layout(n int, backing []int64) {
	per := stride(n)
	for c := range d.cols {
		b := backing[c*per : (c+1)*per : (c+1)*per]
		d.cols[c] = dirCol{
			live: b[0:n:n], fills: b[n : 2*n : 2*n], hits: b[2*n : 3*n : 3*n],
			drops: b[3*n : 4*n : 4*n], cross: b[4*n:],
		}
	}
	d.backing, d.n = backing, n
}

// clearFor zeroes every counter and lays them out for n owners, keeping
// the directory's storage when it is large enough.
func (d *DirStats) clearFor(n int) {
	d.seen = slab.Reuse(d.seen, n)
	d.layout(n, slab.Reuse(d.backing, len(d.cols)*stride(n)))
}

// resize re-lays every column's counters out for n owners (n >= d.n),
// keeping their values.
func (d *DirStats) resize(n int) {
	old, oldCols := d.n, slices.Clone(d.cols)
	d.layout(n, make([]int64, len(d.cols)*stride(n)))
	for c, prev := range oldCols {
		next := &d.cols[c]
		copy(next.live, prev.live)
		copy(next.fills, prev.fills)
		copy(next.hits, prev.hits)
		copy(next.drops, prev.drops)
		for v := 0; v < old; v++ {
			copy(next.cross[v*n:v*n+old], prev.cross[v*old:(v+1)*old])
		}
	}
	d.seen = append(d.seen, make([]bool, n-old)...)
}

// owner returns the counter index of tag's owner, growing the counters
// the first time the owner appears.
func (d *DirStats) owner(tag uint64) int {
	o := OwnerOf(tag)
	if o >= uint64(d.n) {
		d.resize(int(o) + 1)
	}
	return int(o)
}

// setBaseline restarts the directory at precounted per-column owner
// occupancies (WarmImage.liveOwners), as warming replaces every bank's
// contents: owners[c][o] is owner o's resident blocks in column c, every
// row the same length. Every other counter starts at zero.
func (d *DirStats) setBaseline(owners [][]int64) {
	n := d.n
	if len(owners) > 0 {
		n = max(n, len(owners[0]))
	}
	d.clearFor(n)
	for c := range d.cols {
		copy(d.cols[c].live, owners[c])
		for o, v := range owners[c] {
			if v != 0 {
				d.seen[o] = true
			}
		}
	}
}

// countOwners counts the resident blocks of each column's banks per
// owner, as dense rows of equal length (the highest owner seen plus one).
func countOwners(cols [][]bank.Bank) [][]int64 {
	out := make([][]int64, len(cols))
	n := 0
	for c, col := range cols {
		var row []int64
		for p := range col {
			eachResident(&col[p], func(blk bank.Block) {
				o := int(OwnerOf(blk.Tag))
				if o >= len(row) {
					row = append(row, make([]int64, o+1-len(row))...)
				}
				row[o]++
			})
		}
		out[c] = row
		n = max(n, len(row))
	}
	for c, row := range out {
		out[c] = append(row, make([]int64, n-len(row))...)
	}
	return out
}

// eachResident calls f on every block resident in bk.
func eachResident(bk *bank.Bank, f func(bank.Block)) {
	for set := 0; set < bk.NumSets(); set++ {
		bk.EachBlock(set, f)
	}
}

// hit records a tag-match hit on tag's block in column col.
func (d *DirStats) hit(col int, tag uint64) { d.cols[col].hits[d.owner(tag)]++ }

// fill records tag's block entering column col — the only path a new
// block enters the cache on — and raises its owner's occupancy.
func (d *DirStats) fill(col int, tag uint64) {
	own := d.owner(tag)
	d.seen[own] = true
	d.cols[col].fills[own]++
	d.cols[col].live[own]++
}

// dropped records a victim leaving the cache, attributed to the access
// that pushed it out.
func (d *DirStats) dropped(col int, victimTag, byTag uint64) {
	vo, eo := d.owner(victimTag), d.owner(byTag)
	c := &d.cols[col]
	c.drops[vo]++
	c.live[vo]--
	c.cross[vo*d.n+eo]++
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

// Report merges the per-column accumulators. Like the maps it returns,
// it lists an owner under Fills, Hits, Drops and Cross only where the
// count is non-zero, and under Live (and Owners) every owner resident at
// warm-up or filled since, even once its occupancy has fallen to zero.
func (d *DirStats) Report() DirReport {
	n, per := d.n, stride(d.n)
	sum := make([]int64, per)
	for c := range d.cols {
		for i, v := range d.backing[c*per : (c+1)*per] {
			sum[i] += v
		}
	}
	live, fills, hits, drops, cross := sum[:n], sum[n:2*n], sum[2*n:3*n], sum[3*n:4*n], sum[4*n:]
	// Sized up front, so assembling the report does not regrow its maps.
	pairs := 0
	for _, v := range cross {
		if v != 0 {
			pairs++
		}
	}
	r := DirReport{
		Live:  make(map[uint64]int64, n),
		Fills: make(map[uint64]int64, n),
		Hits:  make(map[uint64]int64, n),
		Drops: make(map[uint64]int64, n),
		Cross: make(map[OwnerPair]int64, pairs),
	}
	for o := 0; o < n; o++ {
		own := uint64(o)
		listed := d.seen[o]
		if listed {
			r.Live[own] = live[o]
		}
		put := func(m map[uint64]int64, v int64) {
			if v != 0 {
				m[own] = v
				listed = true
			}
		}
		put(r.Fills, fills[o])
		put(r.Hits, hits[o])
		put(r.Drops, drops[o])
		if listed {
			r.Owners = append(r.Owners, own)
		}
		for e, v := range cross[o*n : (o+1)*n] {
			if v == 0 {
				continue
			}
			r.Cross[OwnerPair{Victim: own, Evictor: uint64(e)}] = v
			if o == e {
				r.SelfDrops += v
			} else {
				r.CrossDrops += v
			}
		}
	}
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
