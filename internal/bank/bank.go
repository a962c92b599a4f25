// Package bank models one cache bank of the networked L2: a set-indexed
// array of block frames with LRU ordering inside each set, plus the
// Table 1 access latencies and wire delays by bank capacity.
//
// Banks hold state only; timing (busy intervals, queuing) is orchestrated
// by the protocol agents in the cache package. In uniform designs every
// bank is 64 KB direct-mapped; non-uniform designs (D, F) grow capacity
// and associativity with distance from the core, keeping 1024 sets per
// bank so a bank set always stacks into a 16-way set.
package bank

import (
	"fmt"

	"nucanet/internal/slab"
)

// Arena carves bank construction state — the frame slab and the per-set
// fill counts, a lane's two largest construction allocations — from
// recyclable chunks (see internal/slab). Single-goroutine, like every
// slab arena; batch construction reaches it through cache.Arena, and
// cache.BuildWarmImage carves an image's template banks from one.
type Arena struct {
	frames slab.Chunk[Block]
	fills  slab.Chunk[uint8]
}

// Reset recycles the arena's memory; see slab.Chunk.Reset for the
// aliasing contract. Only the fill counts are zeroed: a bank reads a
// frame only below its set's fill, and every frame there was written
// since the bank was carved (see Bank), so the frame slab is rewound as
// it stands.
func (a *Arena) Reset() {
	a.frames.Rewind()
	a.fills.Reset()
}

// BlockBytes is the cache block size (Table 1).
const BlockBytes = 64

// Spec sizes one bank.
type Spec struct {
	SizeKB int
	Ways   int
}

// Sets returns the number of sets in the bank.
func (s Spec) Sets() int { return s.SizeKB * 1024 / BlockBytes / s.Ways }

func (s Spec) String() string { return fmt.Sprintf("%dKB/%d-way", s.SizeKB, s.Ways) }

// Latency bundles the Table 1 timing of one bank size.
type Latency struct {
	Wire    int // link wire delay across this bank's tile (cycles)
	TagOnly int // tag-matching only
	TagRepl int // tag-matching + replacement (one combined access)
}

// LatencyFor returns the Table 1 latencies for a bank capacity. It
// panics on a size Table 1 does not list; Spec.Check rejects one first.
func LatencyFor(sizeKB int) Latency {
	lat, ok := table1(sizeKB)
	if !ok {
		panic(fmt.Sprintf("bank: no Table 1 latency for %d KB", sizeKB))
	}
	return lat
}

// table1 looks a bank capacity up in Table 1, which lists 64, 128, 256
// and 512 KB.
func table1(sizeKB int) (Latency, bool) {
	switch sizeKB {
	case 64:
		return Latency{Wire: 1, TagOnly: 2, TagRepl: 3}, true
	case 128:
		return Latency{Wire: 2, TagOnly: 4, TagRepl: 4}, true
	case 256:
		return Latency{Wire: 2, TagOnly: 4, TagRepl: 5}, true
	case 512:
		return Latency{Wire: 3, TagOnly: 5, TagRepl: 6}, true
	}
	return Latency{}, false
}

// Check reports whether a bank can be built from s: a size Table 1
// lists, a way count in [1, maxWays], a power-of-two set count, as
// the address map's set index needs, and sets that hold every block of
// the capacity area and energy charge.
func (s Spec) Check() error {
	if _, ok := table1(s.SizeKB); !ok {
		return fmt.Errorf("bank %v: no Table 1 latency for %d KB (want 64, 128, 256 or 512)", s, s.SizeKB)
	}
	if s.Ways < 1 || s.Ways > maxWays {
		return fmt.Errorf("bank %v: %d ways, want 1 to %d", s, s.Ways, maxWays)
	}
	if n := s.Sets(); n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("bank %v: %d sets, want a positive power of two", s, n)
	}
	if n, blocks := s.Sets()*s.Ways, s.SizeKB*1024/BlockBytes; n != blocks {
		return fmt.Errorf("bank %v: %d ways do not divide its %d blocks (%d sets hold %d)", s, s.Ways, blocks, s.Sets(), n)
	}
	return nil
}

// Block is one resident cache block.
type Block struct {
	Tag   uint64
	Dirty bool
}

// maxWays bounds associativity so a set's fill, stored plus one, fits a
// uint8.
const maxWays = 254

// Bank is the mutable state of one cache bank.
//
// Set s owns the frames [s*Ways, (s+1)*Ways) of one pointer-free slab,
// MRU first, and fill[s] says which blocks the set holds: 0 means the
// set has not been written since the bank was built or cloned, and its
// blocks are those of img (empty when img is nil); n+1 means its own
// first n frames. Readers read an unwritten set through img; the first
// mutation copies it into the bank's frames. A clone of a warm image
// therefore costs one clear of fill, and a run pays for the sets it
// writes, not for the size of the cache. An image may hold fewer sets
// than the banks cloned from it (a warm image holds only the sets a
// stream reaches); reading a set past it panics.
type Bank struct {
	spec   Spec
	lat    Latency
	fill   []uint8
	frames []Block
	img    *Bank // read-through source of unwritten sets; never written through
}

// NewIn returns an empty bank of the given number of sets by value, for
// its owner to embed, with its storage carved from an arena — batch
// construction lays a lane's bank state contiguously and recycles it
// across construction rounds. A cache's banks hold spec.Sets() sets; a
// warm image's template banks hold the prefix of them it warms.
func NewIn(spec Spec, sets int, ar *Arena) Bank {
	if err := spec.Check(); err != nil || sets > spec.Sets() {
		panic(fmt.Sprintf("bank: bad spec %+v with %d sets", spec, sets))
	}
	return Bank{
		spec: spec, lat: LatencyFor(spec.SizeKB),
		fill:   slab.Grab(&ar.fills, sets),
		frames: slab.Grab(&ar.frames, sets*spec.Ways),
	}
}

// CloneState makes this bank's blocks those of src. Both banks must have
// the same spec, and src may hold a prefix of this bank's sets. Nothing
// is copied up front: every set reads through to src until this bank
// first writes it (see Bank), so src must not change while this bank is
// in use. A warmed template is cloned this way into every run (see
// cache.WarmImage).
func (b *Bank) CloneState(src *Bank) {
	if b.spec != src.spec {
		panic(fmt.Sprintf("bank: clone of %s into %s", src.spec, b.spec))
	}
	clear(b.fill)
	b.img = src
}

// Spec returns the bank geometry.
func (b *Bank) Spec() Spec { return b.spec }

// Latency returns the bank's Table 1 timings.
func (b *Bank) Latency() Latency { return b.lat }

// checkSet panics on a set index outside the bank.
func (b *Bank) checkSet(set int) {
	if set < 0 || set >= len(b.fill) {
		panic(fmt.Sprintf("bank: set %d out of range [0,%d)", set, len(b.fill)))
	}
}

// view returns the set's blocks for reading, MRU first: the bank's own
// frames once it has written the set, the image's before. A set past
// the image's panics, naming the set and the image's size.
func (b *Bank) view(set int) []Block {
	b.checkSet(set)
	src := b
	for src.fill[set] == 0 {
		if src.img == nil {
			return nil
		}
		src = src.img
		if set >= len(src.fill) {
			panic(fmt.Sprintf("bank: set %d read past its image's %d sets", set, len(src.fill)))
		}
	}
	o := set * src.spec.Ways
	return src.frames[o : o+int(src.fill[set])-1]
}

// own returns the set's blocks for writing: the bank's own frames, with
// the set's fill as length and its ways as capacity, first copying the
// image's blocks into them if the bank has not written the set yet.
// Mutators store the new length back with setLen.
func (b *Bank) own(set int) []Block {
	b.checkSet(set)
	w := b.spec.Ways
	frames := b.frames[set*w : (set+1)*w : (set+1)*w]
	f := b.fill[set]
	if f == 0 {
		f = uint8(copy(frames, b.view(set))) + 1
		b.fill[set] = f
	}
	return frames[:f-1]
}

func (b *Bank) setLen(set, n int) { b.fill[set] = uint8(n) + 1 }

// Lookup tag-matches a set; it does not touch recency.
func (b *Bank) Lookup(set int, tag uint64) (way int, ok bool) {
	for i, blk := range b.view(set) {
		if blk.Tag == tag {
			return i, true
		}
	}
	return 0, false
}

// Touch promotes a resident way to MRU within the bank.
func (b *Bank) Touch(set, way int) {
	blks := b.own(set)
	blk := blks[way]
	copy(blks[1:way+1], blks[:way])
	blks[0] = blk
}

// Remove extracts a resident way.
func (b *Bank) Remove(set, way int) Block {
	blks := b.own(set)
	blk := blks[way]
	copy(blks[way:], blks[way+1:])
	b.setLen(set, len(blks)-1)
	return blk
}

// EvictLRU removes and returns the LRU block of the set; ok is false if
// the set is empty.
func (b *Bank) EvictLRU(set int) (Block, bool) {
	blks := b.own(set)
	n := len(blks)
	if n == 0 {
		return Block{}, false
	}
	b.setLen(set, n-1)
	return blks[n-1], true
}

// Insert installs a block as the MRU of the set. The set must have a free
// frame — replacement protocols always evict first; violating that is a
// protocol bug, so it panics.
func (b *Bank) Insert(set int, blk Block) {
	blks := b.own(set)
	n := len(blks)
	if n >= b.spec.Ways {
		panic(fmt.Sprintf("bank: insert into full set %d (%s)", set, b.spec))
	}
	blks = blks[:n+1]
	copy(blks[1:], blks[:n])
	blks[0] = blk
	b.setLen(set, n+1)
}

// InsertLRU installs a block as the LRU of the set (used when a
// replacement chain pushes a block down from a closer bank: the incoming
// block is colder than everything already here under Promotion-style
// ordering; Fast-LRU inserts at MRU instead).
func (b *Bank) InsertLRU(set int, blk Block) {
	blks := b.own(set)
	n := len(blks)
	if n >= b.spec.Ways {
		panic(fmt.Sprintf("bank: insertLRU into full set %d (%s)", set, b.spec))
	}
	blks = blks[:n+1]
	blks[n] = blk
	b.setLen(set, n+1)
}

// SetDirty marks a resident way dirty (a write hit).
func (b *Bank) SetDirty(set, way int) {
	b.own(set)[way].Dirty = true
}

// Occupancy returns how many frames of the set are filled.
func (b *Bank) Occupancy(set int) int { return len(b.view(set)) }

// Blocks returns a copy of the set's blocks in MRU-to-LRU order.
func (b *Bank) Blocks(set int) []Block {
	v := b.view(set)
	out := make([]Block, len(v))
	copy(out, v)
	return out
}

// EachBlock calls f on the set's blocks in MRU-to-LRU order without
// copying them (whole-cache scans use it; Blocks allocates per set). f
// must not mutate the bank.
func (b *Bank) EachBlock(set int, f func(Block)) {
	for _, blk := range b.view(set) {
		f(blk)
	}
}

// Ways returns the bank associativity.
func (b *Bank) Ways() int { return b.spec.Ways }
