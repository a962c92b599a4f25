package core

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/telemetry"
)

func mustPrepare(t *testing.T, opt Options, pc *PrepCache) *Artifacts {
	t.Helper()
	return mustPrepareOn(t, &std, opt, pc)
}

func mustPrepareOn(t *testing.T, rt *Runtime, opt Options, pc *PrepCache) *Artifacts {
	t.Helper()
	art, err := rt.prepare(opt, pc)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// runFreshArena is Run on a fresh arena instead of a recycled one: no
// construction slice, kernel or free list carries over from another run.
func runFreshArena(t *testing.T, opt Options) Result {
	t.Helper()
	in, err := NewInstance(mustPrepare(t, opt, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.RunToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustRun(t *testing.T, opt Options) Result {
	t.Helper()
	return mustRunOn(t, &std, opt)
}

func mustRunOn(t *testing.T, rt *Runtime, opt Options) Result {
	t.Helper()
	res, err := rt.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runMix is one short run on each topology family the pooled arena and
// the shared warm state serve: mesh, halo, ring and a 4-core chiplet
// fabric under the directory policy.
func runMix() []Options {
	a := DefaultOptions()
	a.Accesses = 150
	f, r := a, a
	f.DesignID, f.Benchmark, f.Seed = "F", "lucas", 3
	r.DesignID, r.Policy, r.Mode = "R", cache.LRU, cache.Unicast
	h2 := cmpOpts("H2", 4, 150)
	h2.Policy = cache.Directory
	return []Options{a, f, r, h2}
}

// TestRunSharesWarmStateByGeometry: the warm table and image have no
// seed or benchmark in their key, so plain Prepares on one runtime share
// them; the bank stack and the core count are in the key.
func TestRunSharesWarmStateByGeometry(t *testing.T) {
	rt := new(Runtime)
	opt := DefaultOptions()
	opt.Accesses = 50
	other := opt
	other.Benchmark, other.Seed, other.Policy = "lucas", 977, cache.LRU
	a, b := mustPrepareOn(t, rt, opt, nil), mustPrepareOn(t, rt, other, nil)
	if a.WarmImg == nil || a.WarmImg != b.WarmImg || &a.Warm[0] != &b.Warm[0] {
		t.Error("two Prepares differing in seed, benchmark and policy did not share one warm state")
	}
	if c := mustPrepareOn(t, rt, other, NewPrepCache()); c.WarmImg != a.WarmImg {
		t.Error("a batch's PrepCache did not pick up the runtime's warm image")
	}
	for name, mut := range map[string]func(*Options){
		"bank stack D": func(o *Options) { o.DesignID = "D" },
		"bank stack F": func(o *Options) { o.DesignID = "F" },
		"2 cores":      func(o *Options) { o.Cores = 2 },
	} {
		diff := opt
		mut(&diff)
		if d := mustPrepareOn(t, rt, diff, nil); d.WarmImg == a.WarmImg || &d.Warm[0] == &a.Warm[0] {
			t.Errorf("%s shares Design A's single-core warm state", name)
		}
	}
}

// TestRunWarmCacheEviction: more live keys than maxSharedWarm evict the
// least recently used state, a rebuilt state gives the same Result, and
// a batch's PrepCache still builds each of its states once.
func TestRunWarmCacheEviction(t *testing.T) {
	rt := new(Runtime)
	opt := DefaultOptions()
	opt.Accesses = 50
	first := mustRunOn(t, rt, opt)
	img := mustPrepareOn(t, rt, opt, nil).WarmImg

	pc := NewPrepCache()
	pinned := make([]*cache.WarmImage, maxSharedWarm+1)
	for i := range pinned {
		pinned[i] = mustPrepareOn(t, rt, cmpOpts("A", i+1, 50), pc).WarmImg
	}
	if again := mustPrepareOn(t, rt, opt, nil).WarmImg; again == img {
		t.Fatalf("%d newer warm states did not evict the oldest", len(pinned))
	}
	if again := mustRunOn(t, rt, opt); !reflect.DeepEqual(again, first) {
		t.Error("Result changed after its warm state was evicted and rebuilt")
	}
	for i, want := range pinned {
		if got := mustPrepareOn(t, rt, cmpOpts("A", i+1, 50), pc).WarmImg; got != want {
			t.Errorf("%d cores: the batch rebuilt a warm image it had already built", i+1)
		}
	}
}

// TestRunMatchesFreshArena: Run — recycled arena, shared warm image —
// returns exactly what Prepare + NewInstance on a fresh arena +
// RunToCompletion returns. The probed run's telemetry is serialized only
// after a later Run has reset and reused the arena, so a Result holding
// arena memory would show.
func TestRunMatchesFreshArena(t *testing.T) {
	probed := DefaultOptions()
	probed.Accesses = 150
	probed.Telemetry = telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}
	got := mustRun(t, probed)

	for _, opt := range runMix() {
		if !reflect.DeepEqual(mustRun(t, opt), runFreshArena(t, opt)) {
			t.Errorf("%s x %d cores: Run differs from the fresh-arena instance", opt.DesignID, opt.Cores)
		}
	}

	want := runFreshArena(t, probed)
	if !reflect.DeepEqual(got, want) {
		t.Error("probed Run differs from the fresh-arena instance")
	}
	if !bytes.Equal(telemetryFingerprint(t, []Result{got}), telemetryFingerprint(t, []Result{want})) {
		t.Error("probed Run's telemetry changed once its arena was reused")
	}
}

// TestRunConcurrent: Run from 8 goroutines at once — each walking the
// mix from a different starting point, so the arena pool and the warm
// cache see every interleaving of designs — equals the sequential runs.
func TestRunConcurrent(t *testing.T) {
	opts := runMix()
	want := make([]Result, len(opts))
	for i, opt := range opts {
		want[i] = mustRun(t, opt)
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
					t.Errorf("goroutine %d: %s differs from the sequential run", g, opts[i].DesignID)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestArenaCarriesAcrossDesigns: one worker, its arena carrying its kernel,
// its packet, op and port-op free lists and its cores with their access
// streams from run to run, builds Design A (multicast Fast-LRU), F, a
// 4-core H2 under the directory policy, G (whose concentrated routers
// demux through bankMux), A again, then an 8-core H2, A and the 4-core
// H2 again, so the recycled cores and streams shrink and grow. Every
// Result equals the fresh-arena instance's, every carried pool is back
// to Live == 0 after every run (ops: Drain fails the run otherwise), and
// the second A run mints no packet.
func TestArenaCarriesAcrossDesigns(t *testing.T) {
	a := DefaultOptions()
	a.Accesses = 300
	f, g := a, a
	f.DesignID, g.DesignID = "F", "G"
	h2 := cmpOpts("H2", 4, 300)
	h2.Policy = cache.Directory
	h8 := h2
	h8.Cores = 8
	w := new(Worker)
	for i, opt := range []Options{a, f, h2, g, a, h8, a, h2} {
		in, err := NewInstance(mustPrepare(t, opt, nil), w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.RunToCompletion()
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, opt.DesignID, err)
		}
		st := in.Sys.Net.PoolStats()
		if st.Live != 0 {
			t.Errorf("run %d (%s): %d packets still out after the run", i, opt.DesignID, st.Live)
		}
		if in.Fab != nil && in.Fab.Pending() != 0 {
			t.Errorf("run %d (%s): %d port ops still out after the run", i, opt.DesignID, in.Fab.Pending())
		}
		if i == 4 && st.Allocated != 0 {
			t.Errorf("second A run minted %d packets; the arena's free list should have served them all", st.Allocated)
		}
		if !reflect.DeepEqual(got, runFreshArena(t, opt)) {
			t.Errorf("run %d (%s x %d cores): Result differs from the fresh-arena instance", i, opt.DesignID, opt.Cores)
		}
		w.reset()
	}
}

// TestRunShuffledOnOneArena: one worker carries a mixed list — A, F, G
// and H2 single-core and, where the grid hosts them, at 1, 4 and 8
// cores, each under the directory policy, multicast Fast-LRU and unicast
// LRU — in three seeded random orders, and every Result equals the
// fresh-arena instance's. Whatever a run renews in place (latency
// records, directories, memories, fabrics, ports, cores) must not carry
// anything from whichever run the arena held before.
func TestRunShuffledOnOneArena(t *testing.T) {
	type pair struct {
		policy cache.Policy
		mode   cache.Mode
	}
	pairs := []pair{{cache.Directory, cache.Multicast}, {cache.FastLRU, cache.Multicast}, {cache.LRU, cache.Unicast}}
	var opts []Options
	for _, d := range []string{"A", "F", "G", "H2"} {
		for _, cores := range []int{0, 1, 4, 8} {
			for _, p := range pairs {
				opt := cmpOpts(d, cores, 80)
				opt.Policy, opt.Mode, opt.Seed = p.policy, p.mode, uint64(len(opts)+1)
				if opt.Validate() == nil {
					opts = append(opts, opt)
				}
			}
		}
	}
	if len(opts) != 36 {
		t.Fatalf("the mix holds %d runs, want 36 (A and H2 at 0, 1, 4 and 8 cores, F at 0, G at 0, 1 and 4)", len(opts))
	}
	want := make([]Result, len(opts))
	for i, opt := range opts {
		want[i] = runFreshArena(t, opt)
	}
	w := new(Worker)
	for _, seed := range []uint64{1, 2, 3} {
		order := rand.New(rand.NewPCG(seed, 0)).Perm(len(opts))
		for _, i := range order {
			opt := opts[i]
			in, err := NewInstance(mustPrepare(t, opt, nil), w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := in.RunToCompletion()
			if err != nil {
				t.Fatal(err)
			}
			w.reset()
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("order %d: %s x %d cores, %v/%v: Result differs from the fresh-arena instance",
					seed, opt.DesignID, opt.Cores, opt.Policy, opt.Mode)
			}
		}
	}
}
