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
// far-event heap, the rare injection ring that outgrows its carved burst,
// each fresh core's reuse stacks, primed by its first draw — amortized
// over the run, plus assembling the Result (reads 0.040 / 0.014 /
// 0.044). The runs are the benchmark's length because that
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
// table and image are shared, and the worker's arena recycles the
// construction memory (routers, send queues, bank agents and their
// banks), the kernel, the packet, op and port-op free lists, and the
// cores with the access streams they draw from. What a run still
// allocates is a fixed set of objects — controllers and latency
// records, the Result — however many banks and routers the design has
// and however long the run, so the bound is per run (reads 41 / 20 / 83
// objects, the packet free list still growing past two runs' high-water
// mark among them; 0.008 / 0.008 / 0.012 KiB per access). Each run has
// its own seed, as the benchmark's ops do.
func TestRunAllocBudget(t *testing.T) {
	const objBudget, kibBudget = 150, 0.03
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
			objs := after.Mallocs - before.Mallocs
			kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Latency.Count)
			t.Logf("%d heap objects per run and %.3f KiB per access", objs, kib)
			if objs > objBudget || kib > kibBudget {
				t.Fatalf("a warm Run allocates %d objects and %.3f KiB per access, budget %d and %.2f", objs, kib, objBudget, kibBudget)
			}
		})
	}
}
