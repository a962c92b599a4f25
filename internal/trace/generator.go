package trace

import (
	"math"
	"slices"

	"nucanet/internal/sim"
)

// Access is one L2 reference.
type Access struct {
	Addr  uint64 // block-aligned byte address
	Write bool
	Gap   int64 // instructions executed since the previous access
}

// Generator produces an access stream.
type Generator interface {
	Next() Access
}

// maxStack caps the per-set reuse stack: reuse depths beyond twice the
// deepest associativity we simulate are indistinguishable misses.
const maxStack = 48

// hotSetWidth bounds how many sets of each column a stream touches.
// Programs concentrate on a working set far smaller than the 16K sets of
// the cache; bounding it keeps per-set access counts at scaled-down
// trace lengths comparable to the paper's full runs (where
// replacement-policy dynamics have time to diverge). A geometry with
// fewer sets uses all of them.
const hotSetWidth = 16

// hitDepth is the associativity against which the profile's MissRate is
// defined: reuse within the top hitDepth stack positions hits a warm
// 16-way LRU cache; deeper reuse and fresh blocks miss it.
const hitDepth = 16

// Synthetic generates the per-benchmark stream described in the package
// comment: a uniformly chosen (column, hot set), then with probability
// 1-MissRate a reuse at a Zipf-distributed depth within the 16 resident
// ways (an LRU hit), otherwise a miss — half brand-new blocks, half deep
// reuse beyond the cache's reach. Replacement policies other than exact
// LRU (Promotion) keep different contents and therefore see different
// hit rates on the same stream, as in the paper.
type Synthetic struct {
	prof Profile
	am   AddrMap
	rng  sim.RNG

	cdf []float64 // Zipf CDF over depths 1..hitDepth
	// hot holds the reuse stacks of the sets the stream touches — rows
	// [0, hotSets*Columns) of the set*Columns+col table, maxStack tags
	// each — primed by the first Next (empty until then; Reset empties
	// it and keeps its capacity). No stream reads any other stack.
	hot     []uint64
	hotSets int // min(hotSetWidth, am.Sets)
	nextTag uint64
	meanGap float64
}

// warmTag is the prefill of reuse stack row at depth j: distinct tags
// numbered row by row from 1. It depends on the geometry alone, so the
// warm state of a cache is the same for every seed and profile.
func warmTag(row, j int) uint64 { return uint64(row*maxStack + j + 1) }

// NewSynthetic builds a generator for a benchmark profile over the given
// address map, seeded deterministically.
//
// Every per-set reuse stack starts prefilled with distinct warm tags so
// the stream models a program past its cold-start (the paper warms the L2
// with 100 M instructions before measuring). Use WarmBlocks to preload a
// cache with the same state.
func NewSynthetic(p Profile, am AddrMap, seed uint64) *Synthetic {
	g := new(Synthetic)
	g.Reset(p, am, seed)
	return g
}

// Reset re-seeds g in place into the generator NewSynthetic(p, am, seed)
// returns, keeping the capacity of its reuse stacks and Zipf table: a
// recycled generator allocates nothing once its stacks have grown to the
// largest geometry it serves.
func (g *Synthetic) Reset(p Profile, am AddrMap, seed uint64) {
	g.prof, g.am = p, am
	g.rng.Seed(seed)
	g.hot, g.hotSets = g.hot[:0], min(hotSetWidth, am.Sets)
	g.nextTag = warmTag(am.Columns*am.Sets, 0) // first tag past every prefill
	if g.cdf == nil {
		g.cdf = make([]float64, hitDepth)
	}
	sum := 0.0
	for d := 1; d <= hitDepth; d++ {
		sum += 1.0 / math.Pow(float64(d), p.Alpha)
		g.cdf[d-1] = sum
	}
	for i := range g.cdf {
		g.cdf[i] /= sum
	}
	if p.AccPerInstr > 0 {
		g.meanGap = 1.0 / p.AccPerInstr
	} else {
		g.meanGap = 1
	}
}

// WarmBlocks returns, for each (column, set) a stream can reach, the
// `ways` most recently used tags in MRU-to-LRU order — the warm cache
// contents matching the generator's reuse stacks. Index the result with
// set*Columns+col. It holds the rows of the sets [0, min(hotSetWidth,
// Sets)) only: no stream reads any other set, so a cache warmed from the
// table needs no state for them. The rows share one backing array but
// each is capped at its own length, so appending to a row never reaches
// its neighbour.
func (g *Synthetic) WarmBlocks(ways int) [][]uint64 {
	n := min(ways, maxStack)
	out := make([][]uint64, g.hotSets*g.am.Columns)
	flat := make([]uint64, len(out)*n)
	for i := range out {
		row := flat[i*n : (i+1)*n : (i+1)*n]
		if len(g.hot) > 0 {
			copy(row, g.hot[i*maxStack:])
		} else {
			for j := range row {
				row[j] = warmTag(i, j)
			}
		}
		out[i] = row
	}
	return out
}

// Next produces the next access.
func (g *Synthetic) Next() Access {
	if len(g.hot) == 0 {
		n := g.hotSets * g.am.Columns * maxStack
		g.hot = slices.Grow(g.hot, n)[:n]
		for i := range g.hot {
			g.hot[i] = warmTag(0, i)
		}
	}
	col := g.rng.Intn(g.am.Columns)
	set := g.rng.Intn(g.hotSets)
	row := set*g.am.Columns + col
	s := g.hot[row*maxStack : (row+1)*maxStack]

	var tag uint64
	if g.rng.Bool(g.prof.MissRate) {
		// A miss: half compulsory (fresh block), half capacity (reuse
		// from beyond the cache's 16 resident ways).
		if g.rng.Bool(0.5) {
			tag = g.nextTag
			g.nextTag++
		} else {
			d := hitDepth + 1 + g.rng.Intn(maxStack-hitDepth)
			tag = s[d-1]
		}
	} else {
		// A hit: Zipf-distributed reuse within the resident ways.
		tag = s[g.sampleDepth()-1]
	}
	// Move (or insert) the tag to the stack front.
	pos := -1
	for i, t := range s {
		if t == tag {
			pos = i
			break
		}
	}
	if pos < 0 {
		pos = len(s) - 1 // fresh: the oldest entry falls off
	}
	copy(s[1:pos+1], s[:pos])
	s[0] = tag

	gap := g.geometricGap()
	return Access{
		Addr:  g.am.Compose(tag, set, col),
		Write: g.rng.Bool(g.prof.WriteFrac()),
		Gap:   gap,
	}
}

// sampleDepth draws a Zipf-distributed stack depth in [1, hitDepth].
func (g *Synthetic) sampleDepth() int {
	u := g.rng.Float64()
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// burstFrac is the fraction of accesses that arrive in bursts (back to
// back, as after a cluster of L1 misses); the remainder carry long gaps
// chosen to preserve the profile's overall accesses-per-instruction.
const (
	burstFrac    = 0.6
	burstGapMean = 2.0
)

// geometricGap draws the instruction gap with mean 1/AccPerInstr using a
// bursty mixture: L2 accesses cluster after L1 miss bursts rather than
// arriving uniformly, which is what exposes column and bank contention.
func (g *Synthetic) geometricGap() int64 {
	if g.meanGap <= burstGapMean+1 {
		return g.geom(g.meanGap)
	}
	if g.rng.Bool(burstFrac) {
		return g.geom(burstGapMean)
	}
	long := (g.meanGap - burstFrac*burstGapMean) / (1 - burstFrac)
	return g.geom(long)
}

// geom draws a geometric value >= 1 with the given mean.
func (g *Synthetic) geom(mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / mean
	u := g.rng.Float64()
	n := int64(math.Log(1-u)/math.Log(1-p)) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Take drains n accesses from a generator into a slice.
func Take(g Generator, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
