package core

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/sim"
)

// imageHash hashes art's warm image as a fresh clone of it reads: every
// set of a clone reads through to the shared template banks until it is
// written, and building the instance writes none. It walks the sets the
// image holds, the ones the warm table lists.
func imageHash(t *testing.T, art *Artifacts) uint64 {
	t.Helper()
	in, err := NewInstance(art, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [9]byte
	hashBlock := func(blk bank.Block) {
		binary.LittleEndian.PutUint64(buf[:8], blk.Tag)
		buf[8] = 0
		if blk.Dirty {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	for c := 0; c < in.Sys.Topo.Columns(); c++ {
		for p := range art.Design.Banks {
			bk := in.Sys.Bank(c, p)
			for set := 0; set < len(art.Warm)/art.Design.AddrMap().Columns; set++ {
				binary.LittleEndian.PutUint64(buf[:8], uint64(bk.Occupancy(set)))
				h.Write(buf[:8])
				bk.EachBlock(set, hashBlock)
			}
		}
	}
	return h.Sum64()
}

// copiedSets counts the bank sets of sys that hold their own copy of
// their blocks — the sets written since WarmClone — and returns one past
// the highest such set index (0 when none is). bank.Bank keeps a fill
// byte per set that stays 0 while the set reads through to the image;
// the test reads it by reflection instead of widening bank's API for one
// assertion.
func copiedSets(t *testing.T, sys *cache.System) (n, top int) {
	t.Helper()
	for c := 0; c < sys.Topo.Columns(); c++ {
		for p := range sys.Design.Banks {
			fill := reflect.ValueOf(sys.Bank(c, p)).Elem().FieldByName("fill")
			if !fill.IsValid() {
				t.Fatal("bank.Bank has no per-set fill field to count copied sets by")
			}
			for i := 0; i < fill.Len(); i++ {
				if fill.Index(i).Uint() != 0 {
					n++
					top = max(top, i+1)
				}
			}
		}
	}
	return n, top
}

// readThroughMix covers every bank mutator a run calls on sets it reads
// through to a shared image: Fast-LRU multicast chains, an LRU unicast
// lucas run (write hits, write-backs, removals), LRU in-place hits in
// Design D's MRU bank, promotion swaps, and an 8-core directory run. Its four warm states fit
// a runtime's warm-state LRU together.
func readThroughMix() []Options {
	a := DefaultOptions()
	a.Accesses = 200
	lru, d, f := a, a, a
	lru.Policy, lru.Mode, lru.Benchmark, lru.Seed = cache.LRU, cache.Unicast, "lucas", 5
	d.DesignID, d.Policy, d.Mode = "D", cache.LRU, cache.Unicast
	f.DesignID, f.Policy, f.Mode, f.Benchmark = "F", cache.Promotion, cache.Unicast, "lucas"
	h2 := cmpOpts("H2", 8, 60)
	h2.Policy = cache.Directory
	return []Options{a, lru, d, f, h2}
}

// TestRunLeavesWarmImageUnchanged: runs on 8 goroutines share the
// default runtime's warm images read-only. Every bank mutator copies a set on
// its first write, so no run moves a template bank — one that wrote
// through would change the image the next run warms from — and every
// run equals the same run on a fresh arena's banks, so a mutator that
// skipped the copy and worked on stale arena frames shows as well. In a run only
// Touch, Remove and EvictLRU ever write a set first: warm sets are full,
// so an Insert follows an eviction or removal in its set and SetDirty
// follows Touch. bank's TestFirstWriteCopiesOneSet holds the others.
func TestRunLeavesWarmImageUnchanged(t *testing.T) {
	opts := readThroughMix()
	arts := make([]*Artifacts, len(opts))
	before := make([]uint64, len(opts))
	want := make([]Result, len(opts))
	for i, opt := range opts {
		arts[i] = mustPrepare(t, opt, nil)
		before[i] = imageHash(t, arts[i])
		want[i] = runFreshArena(t, opt)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range opts {
				i := (g + j) % len(opts)
				got, err := Run(opts[i])
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s/%v differs from the run on a fresh arena", g, opts[i].DesignID, opts[i].Policy)
				}
			}
		}(g)
	}
	wg.Wait()
	for i, opt := range opts {
		if mustPrepare(t, opt, nil).WarmImg != arts[i].WarmImg {
			t.Fatalf("%s/%v: the runs did not warm from the hashed image", opt.DesignID, opt.Policy)
		}
		if imageHash(t, arts[i]) != before[i] {
			t.Errorf("%s/%v: runs wrote through to the shared warm image", opt.DesignID, opt.Policy)
		}
	}
}

// TestDirectoryBaselineCopiedFromImage: a directory run copies its
// per-owner occupancy from the shared warm image instead of walking
// every set of its banks. The copy must equal, owner by owner, the
// baseline of a system warmed from the same table through an image
// of its own (System.Warm) — for H2 at 1, 2 and 8 cores and for every
// catalogue design the directory policy runs on — and must match the
// blocks the clone holds (DirStats.Verify).
func TestDirectoryBaselineCopiedFromImage(t *testing.T) {
	var opts []Options
	for _, cores := range []int{1, 2, 8} {
		o := cmpOpts("H2", cores, 60)
		o.Policy = cache.Directory
		opts = append(opts, o)
	}
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		o := DefaultOptions()
		o.DesignID, o.Policy, o.Accesses = d.ID, cache.Directory, 60
		opts = append(opts, o)
	}
	for _, opt := range opts {
		art, err := Prepare(opt, nil)
		if err != nil {
			t.Fatalf("%s x %d cores: the directory policy does not run: %v", opt.DesignID, opt.Cores, err)
		}
		in, err := NewInstance(art, nil)
		if err != nil {
			t.Fatal(err)
		}
		warmed, err := cache.NewPrebuilt(sim.NewKernel(), art.Design, opt.Policy, opt.Mode,
			cache.Prebuilt{Topo: art.Topo, Alg: art.Table, Prechecked: true})
		if err != nil {
			t.Fatal(err)
		}
		warmed.Warm(art.Warm)
		if !reflect.DeepEqual(in.Sys.Dir, warmed.Dir) {
			t.Errorf("%s x %d cores: copied baseline %+v, warmed %+v", opt.DesignID, opt.Cores, in.Sys.Dir.Report().Owners, warmed.Dir.Report().Owners)
		}
		if v := in.Sys.Dir.Verify(in.Sys); len(v) != 0 {
			t.Errorf("%s x %d cores: %v", opt.DesignID, opt.Cores, v)
		}
	}
}

// TestRunCopiesOnlySetsItWrites: warming is free of per-set work — a
// built instance, the directory's occupancy baseline included, has copied no set —
// and a run copies only sets it writes, never more than it has bank
// accesses. Every catalogue design's image holds min(16, Sets) sets,
// and every set a run writes — on each design, and on H2 at 2 and 8
// cores — lies inside it.
func TestRunCopiesOnlySetsItWrites(t *testing.T) {
	var opts []Options
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		o := DefaultOptions()
		o.DesignID, o.Accesses = d.ID, 1000
		opts = append(opts, o)
	}
	for _, cores := range []int{2, 8} {
		h2 := cmpOpts("H2", cores, 60)
		h2.Policy = cache.Directory
		opts = append(opts, h2)
	}
	for _, opt := range opts {
		art := mustPrepare(t, opt, nil)
		am := art.Design.AddrMap()
		sets := len(art.Warm) / am.Columns
		if sets != min(16, am.Sets) || sets*am.Columns != len(art.Warm) {
			t.Fatalf("%s: warm table of %d rows over %d columns, want the %d sets a stream reaches", opt.DesignID, len(art.Warm), am.Columns, min(16, am.Sets))
		}
		in, err := NewInstance(art, nil)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Policy == cache.Directory && in.Sys.Dir == nil {
			t.Fatal("directory run without DirStats")
		}
		if n, _ := copiedSets(t, in.Sys); n != 0 {
			t.Fatalf("%s/%v: building the instance copied %d sets", opt.DesignID, opt.Policy, n)
		}
		res, err := in.RunToCompletion()
		if err != nil {
			t.Fatal(err)
		}
		n, top := copiedSets(t, in.Sys)
		t.Logf("%s x %d cores: %d sets copied, %d bank accesses", opt.DesignID, opt.Cores, n, res.BankAccesses)
		if n == 0 || uint64(n) > res.BankAccesses {
			t.Fatalf("%s/%v: run copied %d sets for %d bank accesses", opt.DesignID, opt.Policy, n, res.BankAccesses)
		}
		if top > sets {
			t.Fatalf("%s x %d cores: run wrote set %d, past the image's %d sets", opt.DesignID, opt.Cores, top-1, sets)
		}
	}
}
