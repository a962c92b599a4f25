package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/telemetry"
)

func mustPrepare(t *testing.T, opt Options, pc *PrepCache) *Artifacts {
	t.Helper()
	art, err := Prepare(opt, pc)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// runUnpooled is Run without the pooled arena: every construction slice
// comes from the heap.
func runUnpooled(t *testing.T, opt Options) Result {
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
	res, err := Run(opt)
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
// seed or benchmark in their key, so plain Prepares share them
// process-wide; the bank stack and the core count are in the key.
func TestRunSharesWarmStateByGeometry(t *testing.T) {
	opt := DefaultOptions()
	opt.Accesses = 50
	other := opt
	other.Benchmark, other.Seed, other.Policy = "lucas", 977, cache.LRU
	a, b := mustPrepare(t, opt, nil), mustPrepare(t, other, nil)
	if a.WarmImg == nil || a.WarmImg != b.WarmImg || &a.Warm[0] != &b.Warm[0] {
		t.Error("two Prepares differing in seed, benchmark and policy did not share one warm state")
	}
	if c := mustPrepare(t, other, NewPrepCache()); c.WarmImg != a.WarmImg {
		t.Error("a batch's PrepCache did not pick up the process-wide warm image")
	}
	for name, mut := range map[string]func(*Options){
		"bank stack D": func(o *Options) { o.DesignID = "D" },
		"bank stack F": func(o *Options) { o.DesignID = "F" },
		"2 cores":      func(o *Options) { o.Cores = 2 },
	} {
		diff := opt
		mut(&diff)
		if d := mustPrepare(t, diff, nil); d.WarmImg == a.WarmImg || &d.Warm[0] == &a.Warm[0] {
			t.Errorf("%s shares Design A's single-core warm state", name)
		}
	}
}

// TestRunWarmCacheEviction: more live keys than maxSharedWarm evict the
// least recently used state, a rebuilt state gives the same Result, and
// a batch's PrepCache still builds each of its states once.
func TestRunWarmCacheEviction(t *testing.T) {
	opt := DefaultOptions()
	opt.Accesses = 50
	first := mustRun(t, opt)
	img := mustPrepare(t, opt, nil).WarmImg

	pc := NewPrepCache()
	pinned := make([]*cache.WarmImage, maxSharedWarm+1)
	for i := range pinned {
		pinned[i] = mustPrepare(t, cmpOpts("A", i+1, 50), pc).WarmImg
	}
	if again := mustPrepare(t, opt, nil).WarmImg; again == img {
		t.Fatalf("%d newer warm states did not evict the oldest", len(pinned))
	}
	if again := mustRun(t, opt); !reflect.DeepEqual(again, first) {
		t.Error("Result changed after its warm state was evicted and rebuilt")
	}
	for i, want := range pinned {
		if got := mustPrepare(t, cmpOpts("A", i+1, 50), pc).WarmImg; got != want {
			t.Errorf("%d cores: the batch rebuilt a warm image it had already built", i+1)
		}
	}
}

// TestRunMatchesUnpooledInstance: Run — pooled arena, shared warm image
// — returns exactly what Prepare + NewInstance(art, nil) +
// RunToCompletion returns. The probed run's telemetry is serialized only
// after a later Run has reset and reused the arena, so a Result holding
// arena memory would show.
func TestRunMatchesUnpooledInstance(t *testing.T) {
	probed := DefaultOptions()
	probed.Accesses = 150
	probed.Telemetry = telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}
	got := mustRun(t, probed)

	for _, opt := range runMix() {
		if !reflect.DeepEqual(mustRun(t, opt), runUnpooled(t, opt)) {
			t.Errorf("%s x %d cores: Run differs from the unpooled instance", opt.DesignID, opt.Cores)
		}
	}

	want := runUnpooled(t, probed)
	if !reflect.DeepEqual(got, want) {
		t.Error("probed Run differs from the unpooled instance")
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
