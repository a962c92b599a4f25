package cache

import (
	"testing"
	"testing/quick"

	"nucanet/internal/bank"
)

func specs1way(n int) []bank.Spec {
	out := make([]bank.Spec, n)
	for i := range out {
		out[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return out
}

// flatLRU is an independent, trivially-correct 16-way LRU used to check
// the hierarchical golden model degenerates to exact LRU with 1-way banks.
type flatLRU struct {
	ways  int
	stack []uint64
}

func (f *flatLRU) access(tag uint64) (hit bool, depth int) {
	for i, t := range f.stack {
		if t == tag {
			copy(f.stack[1:i+1], f.stack[:i])
			f.stack[0] = tag
			return true, i
		}
	}
	if len(f.stack) < f.ways {
		f.stack = append(f.stack, 0)
	}
	copy(f.stack[1:], f.stack)
	f.stack[0] = tag
	return false, -1
}

func TestGoldenLRUMatchesFlatLRU(t *testing.T) {
	if err := quick.Check(func(ops []uint8, seed uint8) bool {
		g := NewGolden(LRU, specs1way(4), 1, 1)
		f := &flatLRU{ways: 4}
		for _, op := range ops {
			tag := uint64(op%11) + 1
			gHit, gPos, _, _ := g.Access(0, 0, tag)
			fHit, fDepth := f.access(tag)
			if gHit != fHit {
				return false
			}
			if gHit && gPos != fDepth {
				// With 1-way banks the bank position IS the LRU depth.
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenFastLRUIdenticalToLRU(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		a := NewGolden(LRU, specs1way(4), 1, 1)
		b := NewGolden(FastLRU, specs1way(4), 1, 1)
		for _, op := range ops {
			tag := uint64(op%13) + 1
			h1, p1, e1, ok1 := a.Access(0, 0, tag)
			h2, p2, e2, ok2 := b.Access(0, 0, tag)
			if h1 != h2 || p1 != p2 || e1 != e2 || ok1 != ok2 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenPromotionSemantics(t *testing.T) {
	g := NewGolden(Promotion, specs1way(4), 1, 1)
	g.Warm(0, 0, []uint64{10, 20, 30, 40})
	// Hit at bank 2 swaps with bank 1.
	hit, pos, _, _ := g.Access(0, 0, 30)
	if !hit || pos != 2 {
		t.Fatalf("hit=%v pos=%d", hit, pos)
	}
	want := [][]uint64{{10}, {30}, {20}, {40}}
	got := g.Contents(0, 0)
	for b := range want {
		if got[b][0] != want[b][0] {
			t.Fatalf("after swap: %v, want %v", got, want)
		}
	}
	// A second hit promotes it to the MRU bank.
	g.Access(0, 0, 30)
	if got := g.Contents(0, 0); got[0][0] != 30 || got[1][0] != 10 {
		t.Fatalf("after second swap: %v", got)
	}
	// A miss pushes everything one bank farther and evicts the last.
	_, _, evicted, ok := g.Access(0, 0, 99)
	if !ok || evicted != 40 {
		t.Fatalf("evicted %v/%v, want 40", evicted, ok)
	}
	if got := g.Contents(0, 0); got[0][0] != 99 || got[3][0] != 20 {
		t.Fatalf("after miss: %v", got)
	}
}

func TestGoldenPromotionHitAtMRUTouches(t *testing.T) {
	g := NewGolden(Promotion, []bank.Spec{{SizeKB: 128, Ways: 2}, {SizeKB: 128, Ways: 2}}, 1, 1)
	g.Warm(0, 0, []uint64{1, 2, 3, 4})
	hit, pos, _, _ := g.Access(0, 0, 2)
	if !hit || pos != 0 {
		t.Fatalf("hit=%v pos=%d", hit, pos)
	}
	if got := g.Contents(0, 0); got[0][0] != 2 || got[0][1] != 1 {
		t.Fatalf("MRU-bank hit must reorder within the bank: %v", got)
	}
}

func TestGoldenLRUMultiWayChain(t *testing.T) {
	// Two 2-way banks: a hit in the far bank moves the block to the MRU
	// bank; the MRU bank's LRU way shifts to the far bank.
	g := NewGolden(LRU, []bank.Spec{{SizeKB: 128, Ways: 2}, {SizeKB: 128, Ways: 2}}, 1, 1)
	g.Warm(0, 0, []uint64{1, 2, 3, 4})
	hit, pos, _, _ := g.Access(0, 0, 4)
	if !hit || pos != 1 {
		t.Fatalf("hit=%v pos=%d", hit, pos)
	}
	got := g.Contents(0, 0)
	// Bank 0 was [1 2]; hit tag 4 becomes its MRU, evicting 2 into bank 1.
	if got[0][0] != 4 || got[0][1] != 1 {
		t.Fatalf("bank 0 = %v, want [4 1]", got[0])
	}
	if got[1][0] != 2 || got[1][1] != 3 {
		t.Fatalf("bank 1 = %v, want [2 3]", got[1])
	}
}

func TestGoldenWarmDistribution(t *testing.T) {
	g := NewGolden(FastLRU, []bank.Spec{{SizeKB: 64, Ways: 1}, {SizeKB: 128, Ways: 2}}, 2, 4)
	g.Warm(1, 3, []uint64{7, 8, 9})
	got := g.Contents(1, 3)
	if got[0][0] != 7 || got[1][0] != 8 || got[1][1] != 9 {
		t.Fatalf("warm distribution wrong: %v", got)
	}
}

func TestGoldenColdMiss(t *testing.T) {
	g := NewGolden(LRU, specs1way(2), 1, 1)
	hit, _, _, evictedOK := g.Access(0, 0, 5)
	if hit || evictedOK {
		t.Fatal("cold access must miss without eviction")
	}
	hit, pos, _, _ := g.Access(0, 0, 5)
	if !hit || pos != 0 {
		t.Fatal("refetch must hit at the MRU bank")
	}
}
