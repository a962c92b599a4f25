package core

import (
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
