package core

import (
	"fmt"
	"runtime"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/router"
)

// budgetRun is one run whose heap cost a budget test bounds.
type budgetRun struct {
	name string
	opt  Options
}

// allocBudgetRuns are the benchmark's direct workloads, at its lengths.
var allocBudgetRuns = []budgetRun{
	{"A-multicast-fastlru-gcc", Options{DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 4000}},
	{"A-unicast-lru-lucas", Options{DesignID: "A", Policy: cache.LRU, Mode: cache.Unicast, Benchmark: "lucas", Accesses: 4000}},
	{"H2-directory-4core", Options{DesignID: "H2", Policy: cache.Directory, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 1000, Cores: 4}},
}

// runBudgetRuns adds the benchmark's cmp_h2 run and serve_mixed's run
// shape (nucad's default policy and mode) to allocBudgetRuns.
var runBudgetRuns = append(allocBudgetRuns[:len(allocBudgetRuns):len(allocBudgetRuns)],
	budgetRun{"H2-directory-8core", Options{DesignID: "H2", Policy: cache.Directory, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 1000, Cores: 8}},
	budgetRun{"F-serve", Options{DesignID: "F", Policy: cache.FastLRU, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 400}},
)

// TestSimulateAllocBudget bounds the heap objects of the simulate phase
// of a whole run, artifacts and instance already built: an access
// allocates nothing once warm (the core owns its requests, ops and CMP
// port ops are recycled), so what is left is one-time growth — the op
// and packet free lists filling to their high-water marks, the kernel's
// far-event heap, the rare injection ring that outgrows its carved burst,
// each fresh core's reuse stacks, primed by its first draw — amortized
// over the run, plus assembling the Result (reads 0.040 / 0.014 /
// 0.043). The runs are the benchmark's length because that
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
// table and image are shared, and the worker's arena recycles every
// object a run is built from (the system, network, memory, controllers,
// latency records, routers, bank agents and their banks, the kernel,
// the packet, op and port-op free lists, the fabric and the cores with
// their ports and access streams), so building the instance allocates
// nothing. What a run still allocates is its artifacts record and its
// Result, however many cores, banks and routers the design has and
// however long the run, so the bound is per run: it reads 28 / 7 / 26 /
// 26 / 7 objects (the packet free list still growing past two runs'
// high-water mark, and the directory report's maps, among them) and
// 0.002 / 0.002 / 0.002 / 0.001 / 0.015 KiB per access (serve's short
// run carries its 5 KiB latency copy over 400 accesses). The budgets
// leave about 40 % headroom over the largest reading. Each run has its
// own seed, as the benchmark's ops do.
func TestRunAllocBudget(t *testing.T) {
	const objBudget, kibBudget = 40, 0.02
	for _, tc := range runBudgetRuns {
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

// TestNewInstanceOnWarmArenaAllocatesNothing: once a worker has carried
// a run, building an instance of the same shape on it again — system,
// network, memory, controllers, directory, latency records, fabric,
// ports, cores and the Instance itself — allocates no heap object, with
// telemetry off. Radial F hosts no cores and G's four-wide grid no more
// than four, so those pairs are skipped. Every router engine builds its
// nodes from the worker's arena too: single-core A, D, F and R run once
// under each.
//
// The count is exact: the heap objects of warmBuilds builds in a row,
// one processor running, must be 0. An arena slab that is not rewound
// allocates a fresh chunk only every few builds, so an average over a
// handful of builds rounded down would read 0; warmBuilds is more builds
// than any chunk lasts.
func TestNewInstanceOnWarmArenaAllocatesNothing(t *testing.T) {
	const warmBuilds = 200
	check := func(name string, opt Options) {
		t.Helper()
		art, err := Prepare(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := new(Worker)
		in, err := NewInstance(art, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		w.reset()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range warmBuilds {
			if _, err := NewInstance(art, w); err != nil {
				t.Fatal(err)
			}
			w.reset()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: %d NewInstance builds on a warm arena allocate %d objects, want 0", name, warmBuilds, n)
		}
	}
	for _, d := range []string{"A", "F", "G", "H2"} {
		for _, cores := range []int{0, 1, 4, 8} {
			if cores > 0 && (d == "F" || d == "G" && cores == 8) {
				continue
			}
			opt := cmpOpts(d, cores, 200)
			opt.Policy = cache.Directory
			check(fmt.Sprintf("%s x %d cores", d, cores), opt)
		}
	}
	for _, eng := range router.Names() {
		for _, d := range []string{"A", "D", "F", "R"} {
			opt := cmpOpts(d, 0, 200)
			opt.Router = eng
			check(d+" on "+eng, opt)
		}
	}
}
