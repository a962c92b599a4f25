// Package slab is the typed chunk allocator behind batch-construction
// arenas (router.Arena, bank.Arena): it carves many small slices out of
// large typed chunks so a batch of simulations lays its state side by
// side in memory instead of scattering thousands of heap objects, and it
// recycles those chunks across construction rounds so a long-running
// batch stops allocating once it reaches its high-water mark.
package slab

// Chunk is one growable typed backing store. Carves that outgrow the
// active chunk move on to the next retained chunk (after a Reset) or
// allocate a fresh one; previously carved slices keep their own backing
// windows, so growth never invalidates them. The zero value is ready to
// use. A Chunk is single-goroutine state.
type Chunk[T any] struct {
	chunks [][]T // every allocation, oldest first; retained across Reset
	idx    int   // index of the active chunk
	buf    []T   // un-carved tail of chunks[idx]
}

// chunkMin is the minimum chunk size in elements: large enough that one
// construction round carves from a handful of allocations, small enough
// not to waste memory on tiny batches.
const chunkMin = 4096

// Grab carves an n-element slice with capacity exactly n — the
// three-index carve keeps an overflowing append from bleeding into a
// neighboring slice. The slice is zeroed, except that memory recycled
// by Rewind keeps what an earlier round wrote there.
func Grab[T any](c *Chunk[T], n int) []T { return GrabIn(c, n, chunkMin) }

// GrabIn is Grab with fresh chunks of at least chunk elements instead of
// chunkMin, for element types too large to allocate thousands of at once.
// Use one chunk size per Chunk.
func GrabIn[T any](c *Chunk[T], n, chunk int) []T {
	for n > len(c.buf) {
		if c.idx+1 < len(c.chunks) {
			c.idx++
			c.buf = c.chunks[c.idx]
			continue
		}
		sz := max(n, chunk)
		fresh := make([]T, sz)
		c.chunks = append(c.chunks, fresh)
		c.idx = len(c.chunks) - 1
		c.buf = fresh
	}
	out := c.buf[:n:n]
	c.buf = c.buf[n:]
	return out
}

// Reset recycles every chunk for a fresh round of carving: all memory is
// zeroed and carving restarts from the first chunk, so no allocation
// happens until usage exceeds the high-water mark. Every slice
// previously carved is invalidated — only Reset once nothing carved from
// the chunk is referenced. Zeroing warm, already-faulted pages is far
// cheaper than the fresh allocations it replaces, and reused memory
// never adds to the garbage collector's sweep load.
func (c *Chunk[T]) Reset() {
	for _, ch := range c.chunks {
		clear(ch)
	}
	c.Rewind()
}

// Rewind is Reset without the zeroing: carving restarts from the first
// chunk, and the next round's carves hold whatever the previous round
// wrote there. It is for storage whose owner never reads an element it
// has not written in the current round; the aliasing contract is
// Reset's.
func (c *Chunk[T]) Rewind() {
	if len(c.chunks) > 0 {
		c.idx, c.buf = 0, c.chunks[0]
	}
}

// RewindEach is Rewind that first hands every retained element to
// renew, for storage that keeps part of a round's state in place and
// must drop the rest.
func (c *Chunk[T]) RewindEach(renew func(*T)) {
	for _, ch := range c.chunks {
		for i := range ch {
			renew(&ch[i])
		}
	}
	c.Rewind()
}

// Reuse returns s resized to n zeroed elements: in place when its
// capacity allows, so storage renewed run after run stops allocating
// once it has held its largest size.
func Reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
