package bank

import (
	"testing"
	"testing/quick"
)

func TestSpecSets(t *testing.T) {
	cases := []struct {
		spec Spec
		want int
	}{
		{Spec{64, 1}, 1024},
		{Spec{128, 2}, 1024},
		{Spec{256, 4}, 1024},
		{Spec{512, 8}, 1024},
		{Spec{256, 1}, 4096},
	}
	for _, c := range cases {
		if got := c.spec.Sets(); got != c.want {
			t.Errorf("%v.Sets() = %d, want %d", c.spec, got, c.want)
		}
	}
}

func TestLatencyTable1(t *testing.T) {
	cases := []struct {
		kb   int
		want Latency
	}{
		{64, Latency{1, 2, 3}},
		{128, Latency{2, 4, 4}},
		{256, Latency{2, 4, 5}},
		{512, Latency{3, 5, 6}},
	}
	for _, c := range cases {
		if got := LatencyFor(c.kb); got != c.want {
			t.Errorf("LatencyFor(%d) = %+v, want %+v", c.kb, got, c.want)
		}
	}
}

func TestLatencyForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LatencyFor(96)
}

func TestInsertLookupTouch(t *testing.T) {
	b := New(Spec{512, 8})
	for i := 0; i < 8; i++ {
		b.Insert(3, Block{Tag: uint64(100 + i)})
	}
	// Insert order 100..107; each insert is MRU, so order is 107..100.
	blocks := b.Blocks(3)
	for i, blk := range blocks {
		if blk.Tag != uint64(107-i) {
			t.Fatalf("pos %d tag = %d, want %d", i, blk.Tag, 107-i)
		}
	}
	way, ok := b.Lookup(3, 103)
	if !ok || way != 4 {
		t.Fatalf("Lookup(103) = %d,%v, want 4,true", way, ok)
	}
	b.Touch(3, way)
	if got := b.Blocks(3)[0].Tag; got != 103 {
		t.Fatalf("after Touch MRU tag = %d, want 103", got)
	}
	if _, ok := b.Lookup(3, 999); ok {
		t.Fatal("phantom hit")
	}
}

func TestEvictLRU(t *testing.T) {
	b := New(Spec{128, 2})
	b.Insert(0, Block{Tag: 1})
	b.Insert(0, Block{Tag: 2})
	blk, ok := b.EvictLRU(0)
	if !ok || blk.Tag != 1 {
		t.Fatalf("EvictLRU = %v,%v, want tag 1", blk, ok)
	}
	if b.Occupancy(0) != 1 {
		t.Fatalf("occupancy = %d, want 1", b.Occupancy(0))
	}
	if _, ok := b.EvictLRU(0); !ok {
		t.Fatal("second evict should succeed")
	}
	if _, ok := b.EvictLRU(0); ok {
		t.Fatal("evict from empty set should report !ok")
	}
}

func TestInsertFullPanics(t *testing.T) {
	b := New(Spec{64, 1})
	b.Insert(5, Block{Tag: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("insert into full set must panic")
		}
	}()
	b.Insert(5, Block{Tag: 2})
}

func TestInsertLRUOrdering(t *testing.T) {
	b := New(Spec{256, 4})
	b.Insert(0, Block{Tag: 10})
	b.InsertLRU(0, Block{Tag: 20})
	got := b.Blocks(0)
	if got[0].Tag != 10 || got[1].Tag != 20 {
		t.Fatalf("order = %v, want [10 20]", got)
	}
}

func TestRemoveMiddle(t *testing.T) {
	b := New(Spec{256, 4})
	for _, tag := range []uint64{1, 2, 3, 4} {
		b.Insert(0, Block{Tag: tag})
	}
	// Order: 4 3 2 1. Remove way 1 (tag 3).
	blk := b.Remove(0, 1)
	if blk.Tag != 3 {
		t.Fatalf("removed tag %d, want 3", blk.Tag)
	}
	got := b.Blocks(0)
	want := []uint64{4, 2, 1}
	for i := range want {
		if got[i].Tag != want[i] {
			t.Fatalf("after remove: %v", got)
		}
	}
}

func TestSetDirty(t *testing.T) {
	b := New(Spec{64, 1})
	b.Insert(0, Block{Tag: 7})
	b.SetDirty(0, 0)
	if !b.Blocks(0)[0].Dirty {
		t.Fatal("block should be dirty")
	}
}

func TestSetsIsolated(t *testing.T) {
	b := New(Spec{64, 1})
	b.Insert(1, Block{Tag: 11})
	b.Insert(2, Block{Tag: 22})
	if _, ok := b.Lookup(1, 22); ok {
		t.Fatal("cross-set hit")
	}
	if w, ok := b.Lookup(2, 22); !ok || w != 0 {
		t.Fatal("missing hit in own set")
	}
}

// Property: under any sequence of insert/evict, a set never exceeds its
// ways, never holds duplicate tags, and evictions return the oldest
// non-touched block.
func TestBankInvariantsProperty(t *testing.T) {
	if err := quick.Check(func(ops []byte, seed uint16) bool {
		b := New(Spec{256, 4})
		next := uint64(1)
		resident := map[uint64]bool{}
		for _, op := range ops {
			switch op % 3 {
			case 0: // insert (evict first if full)
				if b.Occupancy(0) == 4 {
					blk, _ := b.EvictLRU(0)
					delete(resident, blk.Tag)
				}
				b.Insert(0, Block{Tag: next})
				resident[next] = true
				next++
			case 1: // evict
				if blk, ok := b.EvictLRU(0); ok {
					if !resident[blk.Tag] {
						return false
					}
					delete(resident, blk.Tag)
				}
			case 2: // touch a random resident way
				if occ := b.Occupancy(0); occ > 0 {
					b.Touch(0, int(seed)%occ)
				}
			}
			if b.Occupancy(0) > 4 {
				return false
			}
			seen := map[uint64]bool{}
			for _, blk := range b.Blocks(0) {
				if seen[blk.Tag] || !resident[blk.Tag] {
					return false
				}
				seen[blk.Tag] = true
			}
			if len(seen) != len(resident) {
				return false
			}
			// The non-copying scan visits exactly Blocks' sequence.
			i, blocks := 0, b.Blocks(0)
			b.EachBlock(0, func(blk Block) {
				if i >= len(blocks) || blk != blocks[i] {
					i = len(blocks) + 1
					return
				}
				i++
			})
			if i != len(blocks) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeStoreCounters(t *testing.T) {
	b := New(Spec{64, 1})
	b.Insert(0, Block{Tag: 1})
	b.Lookup(0, 1)
	b.Lookup(0, 2)
	if b.Probes != 2 || b.Stores != 1 {
		t.Fatalf("probes=%d stores=%d, want 2/1", b.Probes, b.Stores)
	}
}
