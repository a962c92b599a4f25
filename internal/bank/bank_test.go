package bank

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// newBank returns an empty bank carved from an arena of its own.
func newBank(spec Spec) *Bank {
	b := NewIn(spec, new(Arena))
	return &b
}

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
	b := newBank(Spec{512, 8})
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
	b := newBank(Spec{128, 2})
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
	b := newBank(Spec{64, 1})
	b.Insert(5, Block{Tag: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("insert into full set must panic")
		}
	}()
	b.Insert(5, Block{Tag: 2})
}

func TestInsertLRUOrdering(t *testing.T) {
	b := newBank(Spec{256, 4})
	b.Insert(0, Block{Tag: 10})
	b.InsertLRU(0, Block{Tag: 20})
	got := b.Blocks(0)
	if got[0].Tag != 10 || got[1].Tag != 20 {
		t.Fatalf("order = %v, want [10 20]", got)
	}
}

func TestRemoveMiddle(t *testing.T) {
	b := newBank(Spec{256, 4})
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
	b := newBank(Spec{64, 1})
	b.Insert(0, Block{Tag: 7})
	b.SetDirty(0, 0)
	if !b.Blocks(0)[0].Dirty {
		t.Fatal("block should be dirty")
	}
}

func TestSetsIsolated(t *testing.T) {
	b := newBank(Spec{64, 1})
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
// non-touched block — on a bank that owns its sets and on a clone that
// starts out reading set 0 through a warm image.
func TestBankInvariantsProperty(t *testing.T) {
	spec := Spec{256, 4}
	img := newBank(spec)
	img.InsertLRU(0, Block{Tag: 1 << 40})
	img.InsertLRU(0, Block{Tag: 1<<40 + 1, Dirty: true})
	want := img.Blocks(0)
	for _, tc := range []struct {
		name  string
		fresh func() *Bank
	}{
		{"owned", func() *Bank { return newBank(spec) }},
		{"read-through", func() *Bank { b := newBank(spec); b.CloneState(img); return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(func(ops []byte, seed uint16) bool {
				b := tc.fresh()
				next := uint64(1)
				resident := map[uint64]bool{}
				for _, blk := range b.Blocks(0) {
					resident[blk.Tag] = true
				}
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
		})
	}
	if got := img.Blocks(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("the image's set 0 changed under its clones: %v, want %v", got, want)
	}
}

// warmTemplate returns a bank warmed as cache.BuildWarmImage warms one:
// set s holds s mod (ways+1) blocks, so empty, partial and full sets all
// occur, with tags unique to the set and every third block dirty.
func warmTemplate(spec Spec) *Bank {
	img := newBank(spec)
	for set := 0; set < spec.Sets(); set++ {
		for w := 0; w < set%(spec.Ways+1); w++ {
			img.InsertLRU(set, Block{Tag: uint64(set<<8 | w), Dirty: w%3 == 2})
		}
	}
	return img
}

// contents is every set's Blocks.
func contents(b *Bank) [][]Block {
	out := make([][]Block, b.NumSets())
	for set := range out {
		out[set] = b.Blocks(set)
	}
	return out
}

// copiedSets counts the sets b has written since it was built or cloned.
func copiedSets(b *Bank) int {
	n := 0
	for _, f := range b.fill {
		if f != 0 {
			n++
		}
	}
	return n
}

// TestCloneReadsThrough: a clone answers every read from the image —
// Lookup, Occupancy, Blocks and EachBlock, plus the counters — without
// copying a single set, and drops whatever the bank held before.
func TestCloneReadsThrough(t *testing.T) {
	spec := Spec{256, 4}
	img := warmTemplate(spec)
	img.Probes = 11
	b := newBank(spec)
	b.Insert(3, Block{Tag: 999})
	b.CloneState(img)
	if b.Probes != img.Probes || b.Stores != img.Stores {
		t.Fatalf("counters %d/%d, image %d/%d", b.Probes, b.Stores, img.Probes, img.Stores)
	}
	for set := 0; set < spec.Sets(); set++ {
		want := img.Blocks(set)
		if got := b.Blocks(set); !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d: Blocks %v, image %v", set, got, want)
		}
		if got := b.Occupancy(set); got != len(want) {
			t.Fatalf("set %d: Occupancy %d, image holds %d", set, got, len(want))
		}
		var each []Block
		b.EachBlock(set, func(blk Block) { each = append(each, blk) })
		if len(each) != len(want) || (len(want) > 0 && !reflect.DeepEqual(each, want)) {
			t.Fatalf("set %d: EachBlock %v, image %v", set, each, want)
		}
		for way, blk := range want {
			if w, ok := b.Lookup(set, blk.Tag); !ok || w != way {
				t.Fatalf("set %d: Lookup(%d) = %d,%v, want %d,true", set, blk.Tag, w, ok, way)
			}
		}
		if _, ok := b.Lookup(set, 999); ok {
			t.Fatalf("set %d: a tag the bank held before the clone still hits", set)
		}
	}
	if n := copiedSets(b); n != 0 {
		t.Fatalf("reads copied %d sets", n)
	}
}

// TestFirstWriteCopiesOneSet: each mutator on a set the clone has not
// written copies exactly that set, ends in the state it reaches on a bank
// that owns the same blocks, and leaves the image unchanged.
func TestFirstWriteCopiesOneSet(t *testing.T) {
	spec := Spec{256, 4}
	img := warmTemplate(spec)
	want := contents(img)
	full, partial, empty := 4, 2, 5 // 4, 2 and 0 blocks
	for _, tc := range []struct {
		name string
		set  int
		op   func(b *Bank)
	}{
		{"Touch", full, func(b *Bank) { b.Touch(full, 2) }},
		{"Remove", full, func(b *Bank) { b.Remove(full, 1) }},
		{"EvictLRU", full, func(b *Bank) { b.EvictLRU(full) }},
		{"EvictLRU-empty", empty, func(b *Bank) { b.EvictLRU(empty) }},
		{"Insert", partial, func(b *Bank) { b.Insert(partial, Block{Tag: 777}) }},
		{"Insert-empty", empty, func(b *Bank) { b.Insert(empty, Block{Tag: 777}) }},
		{"InsertLRU", partial, func(b *Bank) { b.InsertLRU(partial, Block{Tag: 777}) }},
		{"SetDirty", full, func(b *Bank) { b.SetDirty(full, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clone, owned := newBank(spec), newBank(spec)
			clone.CloneState(img)
			for _, blk := range img.Blocks(tc.set) {
				owned.InsertLRU(tc.set, blk)
			}
			tc.op(clone)
			tc.op(owned)
			if n := copiedSets(clone); n != 1 || clone.fill[tc.set] == 0 {
				t.Fatalf("copied %d sets (set %d written: %v), want exactly set %d", n, tc.set, clone.fill[tc.set] != 0, tc.set)
			}
			if got, w := clone.Blocks(tc.set), owned.Blocks(tc.set); !reflect.DeepEqual(got, w) {
				t.Fatalf("set %d after %s: %v, want %v", tc.set, tc.name, got, w)
			}
			if !reflect.DeepEqual(contents(img), want) {
				t.Fatalf("%s on a clone wrote through to the image", tc.name)
			}
		})
	}
}

// TestArenaRewindLeaksNoStaleFrames: the arena rewinds the frame slab
// without zeroing it, so a bank carved after Reset sits on the previous
// round's frames. Neither a fresh bank nor a clone may show them, and a
// clone's first writes start from the image's blocks.
func TestArenaRewindLeaksNoStaleFrames(t *testing.T) {
	spec := Spec{256, 4}
	img := warmTemplate(spec)
	var ar Arena
	old := NewIn(spec, &ar)
	for set := 0; set < spec.Sets(); set++ {
		for w := 0; w < spec.Ways; w++ {
			old.Insert(set, Block{Tag: 1<<40 | uint64(set<<8|w), Dirty: true})
		}
	}
	ar.Reset()
	b := NewIn(spec, &ar)
	if &b.frames[0] != &old.frames[0] || b.frames[0] != old.frames[0] {
		t.Fatal("the rewound arena did not hand back the previous round's frames as they were")
	}
	for set := 0; set < spec.Sets(); set++ {
		if n := b.Occupancy(set); n != 0 {
			t.Fatalf("fresh bank, set %d: %d stale blocks visible", set, n)
		}
	}
	b.CloneState(img)
	if got, want := contents(&b), contents(img); !reflect.DeepEqual(got, want) {
		t.Fatal("clone over stale frames differs from the image")
	}
	for set := 0; set < spec.Sets(); set++ {
		want := img.Blocks(set)
		switch {
		case len(want) == 0:
			if blk, ok := b.EvictLRU(set); ok {
				t.Fatalf("set %d: EvictLRU of an empty image set returned %v", set, blk)
			}
		case set%2 == 0:
			if blk, ok := b.EvictLRU(set); !ok || blk != want[len(want)-1] {
				t.Fatalf("set %d: EvictLRU = %v,%v, want %v", set, blk, ok, want[len(want)-1])
			}
			want = want[:len(want)-1]
		default:
			if blk := b.Remove(set, 0); blk != want[0] {
				t.Fatalf("set %d: Remove(0) = %v, want %v", set, blk, want[0])
			}
			want = want[1:]
		}
		if got := b.Blocks(set); !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d after the first write: %v, want %v", set, got, want)
		}
	}
}

// TestNewInRejectsWaysBeyondFill: a set's fill is a uint8 holding the
// block count plus one.
func TestNewInRejectsWaysBeyondFill(t *testing.T) {
	b := NewIn(Spec{SizeKB: 512, Ways: 254}, new(Arena))
	for w := 0; w < 254; w++ {
		b.InsertLRU(1, Block{Tag: uint64(w)})
	}
	if n := b.Occupancy(1); n != 254 {
		t.Fatalf("a full 254-way set holds %d blocks", n)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "bad spec") {
			t.Fatalf("255 ways: recovered %q, want a bad-spec panic", msg)
		}
	}()
	NewIn(Spec{SizeKB: 512, Ways: 255}, new(Arena))
}

func TestProbeStoreCounters(t *testing.T) {
	b := newBank(Spec{64, 1})
	b.Insert(0, Block{Tag: 1})
	b.Lookup(0, 1)
	b.Lookup(0, 2)
	if b.Probes != 2 || b.Stores != 1 {
		t.Fatalf("probes=%d stores=%d, want 2/1", b.Probes, b.Stores)
	}
}
