package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nucanet/internal/cache"
	"nucanet/internal/telemetry"
)

// TestRuntimeFreeWorkersPinNoRun: a worker back on a runtime's free list
// holds neither the artifacts nor the telemetry of the run it carried,
// so a warm image evicted from the runtime's LRU, and the collector of a
// dropped Result, are collected instead of outliving their run through a
// free worker.
func TestRuntimeFreeWorkersPinNoRun(t *testing.T) {
	rt := new(Runtime)
	opt := DefaultOptions()
	opt.Accesses = 50
	opt.Telemetry = telemetry.Config{Heatmap: true}
	var wg sync.WaitGroup
	var tels atomic.Int32 // run collectors collected
	for range maxFreeArenas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := rt.Run(opt)
			if err != nil {
				t.Error(err)
				return
			}
			runtime.SetFinalizer(res.Telemetry, func(*telemetry.Collector) { tels.Add(1) })
		}()
	}
	wg.Wait()
	rt.mu.Lock()
	free := append([]*Worker(nil), rt.free...)
	rt.mu.Unlock()
	if len(free) == 0 {
		t.Fatal("no worker went back on the free list")
	}
	for i, w := range free {
		if w.in.Art != nil || w.in.tel != nil {
			t.Errorf("free worker %d still holds its last run's artifacts or telemetry", i)
		}
	}

	var img atomic.Bool
	runtime.SetFinalizer(mustPrepareOn(t, rt, opt, nil).WarmImg, func(*cache.WarmImage) { img.Store(true) })
	for i := range maxSharedWarm {
		mustPrepareOn(t, rt, cmpOpts("A", i+1, 50), nil)
	}
	defer runtime.KeepAlive(rt) // its free workers must stay reachable
	for range 20 {
		runtime.GC()
		if img.Load() && tels.Load() == maxFreeArenas {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !img.Load() {
		t.Error("a warm image evicted from the runtime's LRU was never collected")
	}
	if n := tels.Load(); n != maxFreeArenas {
		t.Errorf("%d of %d dropped runs' telemetry collectors were collected", n, maxFreeArenas)
	}
}

// TestRuntimesShareNothing: two private runtimes prepare the same
// options into distinct warm images and topologies, and runs on both
// at once (racelong runs this under the race detector) equal core.Run's
// bit for bit, and so each other's.
func TestRuntimesShareNothing(t *testing.T) {
	opts := runMix()
	want := make([]Result, len(opts))
	for i, opt := range opts {
		want[i] = mustRun(t, opt)
	}
	rts := []*Runtime{new(Runtime), new(Runtime)}
	for _, opt := range opts {
		a, b := mustPrepareOn(t, rts[0], opt, nil), mustPrepareOn(t, rts[1], opt, nil)
		if a.WarmImg == b.WarmImg || a.Topo == b.Topo {
			t.Errorf("%s x %d cores: two runtimes share a warm image or a topology", opt.DesignID, opt.Cores)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range opts {
				i := (g + j) % len(opts)
				got, err := rts[g%2].Run(opts[i])
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("runtime %d: %s x %d cores differs from core.Run", g%2, opts[i].DesignID, opts[i].Cores)
				}
			}
		}()
	}
	wg.Wait()
}
