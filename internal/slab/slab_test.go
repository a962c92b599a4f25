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
