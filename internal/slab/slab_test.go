package slab

import "testing"

// roundSizes is a carve sequence that spans several chunks, including one
// carve larger than chunkMin.
var roundSizes = []int{3, chunkMin - 3, 7, 2 * chunkMin, 1, 0, chunkMin}

func TestGrabZeroedExactAndIsolated(t *testing.T) {
	var c Chunk[int]
	a, b := Grab(&c, 5), Grab(&c, 4)
	for _, s := range [][]int{a, b} {
		if len(s) != cap(s) {
			t.Fatalf("carve has len %d, cap %d; want them equal", len(s), cap(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("fresh carve not zeroed at %d: %d", i, v)
			}
		}
	}
	if len(a) != 5 || len(b) != 4 {
		t.Fatalf("carve lengths %d, %d; want 5, 4", len(a), len(b))
	}
	// a and b are adjacent in the chunk: an append past a's capacity must
	// reallocate, never write into b.
	for i := range a {
		a[i] = 1
	}
	_ = append(a, 99)
	if b[0] != 0 {
		t.Fatalf("append past capacity wrote %d into the neighbouring carve", b[0])
	}
}

func TestEarlierCarvesSurviveChunkGrowth(t *testing.T) {
	var c Chunk[int]
	first := Grab(&c, 8)
	for i := range first {
		first[i] = i + 1
	}
	// Outgrow the first chunk twice; the early carve keeps its window.
	big := Grab(&c, 2*chunkMin)
	big[0], big[len(big)-1] = -1, -1
	more := Grab(&c, chunkMin)
	more[0] = -2
	for i, v := range first {
		if v != i+1 {
			t.Fatalf("first carve changed at %d after growth: %d", i, v)
		}
	}
}

// TestGrabInSizesFreshChunks: GrabIn allocates chunks of the requested
// size (or the carve, if larger), not chunkMin, and reuses them after a
// Reset like Grab does.
func TestGrabInSizesFreshChunks(t *testing.T) {
	var c Chunk[int]
	for i := 0; i < 5; i++ {
		GrabIn(&c, 1, 2)
	}
	GrabIn(&c, 7, 2)
	if len(c.chunks) != 4 || cap(c.chunks[0]) != 2 || cap(c.chunks[3]) != 7 {
		t.Fatalf("chunks of %d elements: %d chunks, first cap %d, last cap %d; want 4 chunks of 2, 2, 2, 7",
			2, len(c.chunks), cap(c.chunks[0]), cap(c.chunks[len(c.chunks)-1]))
	}
	c.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		c.Reset()
		for i := 0; i < 5; i++ {
			GrabIn(&c, 1, 2)
		}
	}); allocs != 0 {
		t.Fatalf("carving within the high-water mark after Reset allocates %.0f", allocs)
	}
}

func TestResetRecyclesWithoutAllocating(t *testing.T) {
	var c Chunk[int]
	for _, n := range roundSizes {
		s := Grab(&c, n)
		for i := range s {
			s[i] = 7
		}
	}
	c.Reset()
	for _, n := range roundSizes {
		for i, v := range Grab(&c, n) {
			if v != 0 {
				t.Fatalf("%d-element carve not zeroed at %d after Reset: %d", n, i, v)
			}
		}
	}
	// At the high-water mark the same round carves from retained chunks.
	if got := testing.AllocsPerRun(10, func() {
		c.Reset()
		for _, n := range roundSizes {
			Grab(&c, n)
		}
	}); got != 0 {
		t.Fatalf("a repeated round after Reset allocated %v times, want 0", got)
	}
}

// TestRewindReusesWindowsUnzeroed: Rewind restarts carving over the same
// memory and leaves its contents in place; a later Reset still zeroes.
func TestRewindReusesWindowsUnzeroed(t *testing.T) {
	var c Chunk[int]
	first := make([][]int, len(roundSizes))
	for i, n := range roundSizes {
		first[i] = Grab(&c, n)
		for j := range first[i] {
			first[i][j] = i + 1
		}
	}
	c.Rewind()
	for i, n := range roundSizes {
		s := Grab(&c, n)
		if n > 0 && &s[0] != &first[i][0] {
			t.Fatalf("carve %d after Rewind is a different window", i)
		}
		for j, v := range s {
			if v != i+1 {
				t.Fatalf("carve %d after Rewind changed at %d: %d, want %d", i, j, v, i+1)
			}
		}
	}
	c.Reset()
	for i, n := range roundSizes {
		s := Grab(&c, n)
		if n > 0 && &s[0] != &first[i][0] {
			t.Fatalf("carve %d after Reset is a different window", i)
		}
		for j, v := range s {
			if v != 0 {
				t.Fatalf("carve %d after Reset not zeroed at %d: %d", i, j, v)
			}
		}
	}
}

// TestRewindEachRenewsEveryElement: RewindEach hands each retained
// element to renew once, then carving restarts over the same windows.
func TestRewindEachRenewsEveryElement(t *testing.T) {
	var c Chunk[int]
	first := make([][]int, len(roundSizes))
	for i, n := range roundSizes {
		first[i] = Grab(&c, n)
		for j := range first[i] {
			first[i][j] = i + 1
		}
	}
	c.RewindEach(func(v *int) { *v = -*v })
	for i, n := range roundSizes {
		s := Grab(&c, n)
		if n > 0 && &s[0] != &first[i][0] {
			t.Fatalf("carve %d after RewindEach is a different window", i)
		}
		for j, v := range s {
			if v != -(i + 1) {
				t.Fatalf("carve %d after RewindEach at %d: %d, want %d", i, j, v, -(i + 1))
			}
		}
	}
}

// TestReuseZeroesInPlace: Reuse keeps a slice's backing array while it
// fits, zeroing the elements it hands back, and allocates only to grow.
func TestReuseZeroesInPlace(t *testing.T) {
	s := Reuse([]int(nil), 6)
	for i := range s {
		s[i] = i + 1
	}
	r := Reuse(s, 4)
	if len(r) != 4 || &r[0] != &s[0] {
		t.Fatalf("Reuse to 4 gave len %d on a new array; want len 4 in place", len(r))
	}
	for _, v := range Reuse(s, 6) {
		if v != 0 {
			t.Fatalf("Reuse handed back a stale element %d", v)
		}
	}
	if g := Reuse(s, 7); len(g) != 7 || &g[0] == &s[0] {
		t.Fatal("Reuse past the capacity did not move to a new array of length 7")
	}
}
