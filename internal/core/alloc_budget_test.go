package core

import (
	"runtime"
	"testing"

	"nucanet/internal/cache"
)

// allocBudgetRuns are the benchmark's direct workloads, at its lengths.
var allocBudgetRuns = []struct {
	name string
	opt  Options
}{
	{"A-multicast-fastlru-gcc", Options{DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 4000}},
	{"A-unicast-lru-lucas", Options{DesignID: "A", Policy: cache.LRU, Mode: cache.Unicast, Benchmark: "lucas", Accesses: 4000}},
	{"H2-directory-4core", Options{DesignID: "H2", Policy: cache.Directory, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 1000, Cores: 4}},
}

// TestSimulateAllocBudget bounds the heap objects of the simulate phase
// of a whole run, artifacts and instance already built: an access
// allocates nothing once warm (the core owns its requests, ops and CMP
// port ops are recycled), so what is left is one-time growth — the op
// and packet free lists filling to their high-water marks, the kernel's
// far-event heap, the rare injection ring that outgrows its carved burst
// — amortized over the run, plus assembling the Result (reads 0.051 /
// 0.026 / 0.073). The runs are the benchmark's length because that
// growth does not shrink with the run.
func TestSimulateAllocBudget(t *testing.T) {
	const budget = 0.10
	for _, tc := range allocBudgetRuns {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Seed = 7
			art, err := Prepare(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewInstance(art, nil)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := in.RunToCompletion()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			accesses := res.Latency.Count
			if want := int64(opt.Accesses * max(opt.Cores, 1)); accesses != want {
				t.Fatalf("run answered %d accesses, want %d", accesses, want)
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(accesses)
			t.Logf("%.3f heap objects per access", per)
			if per > budget {
				t.Fatalf("simulate allocates %.3f objects per access, budget %.2f", per, budget)
			}
		})
	}
}

// TestRunAllocBudget bounds the heap cost of a whole Run — prepare and
// build included — once the process is warm: the gated design, the warm
// table and image are shared and the construction arena (routers, send
// queues, banks) is recycled, so a run pays for its access stream (24 B
// per access), the per-component objects of its instance, and the
// simulate phase bounded above (reads 0.28 / 0.25 / 0.16 objects and
// 0.09 / 0.09 / 0.15 KiB). Each run has its own seed, as the benchmark's
// ops do.
func TestRunAllocBudget(t *testing.T) {
	const objBudget, kibBudget = 0.35, 0.20
	for _, tc := range allocBudgetRuns {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			for _, warmUp := range []uint64{1, 2} {
				opt.Seed = warmUp
				if _, err := Run(opt); err != nil {
					t.Fatal(err)
				}
			}
			opt.Seed = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			accesses := float64(res.Latency.Count)
			objs := float64(after.Mallocs-before.Mallocs) / accesses
			kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / accesses
			t.Logf("%.2f heap objects and %.2f KiB per access", objs, kib)
			if objs > objBudget || kib > kibBudget {
				t.Fatalf("a warm Run allocates %.2f objects and %.2f KiB per access, budget %.2f and %.2f", objs, kib, objBudget, kibBudget)
			}
		})
	}
}
