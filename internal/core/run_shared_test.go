package core

import (
	"reflect"
	"testing"

	"nucanet/internal/cache"
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
