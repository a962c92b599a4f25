package router_test

import (
	"reflect"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/core"
	"nucanet/internal/router"
)

// TestWorkloadsParkExactly runs the options of the benchmark's four
// workloads, shortened, once with parked routers and once with every
// router on the wake-up rule that predates parking. The two runs must
// produce the same Result, and the parked one must tick fewer routers,
// none of them without a ready front flit.
func TestWorkloadsParkExactly(t *testing.T) {
	serve := core.DefaultOptions()
	serve.DesignID, serve.Accesses = "F", 400
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"mesh_long", core.Options{DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 500}},
		{"mesh_unicast_miss", core.Options{DesignID: "A", Policy: cache.LRU, Mode: cache.Unicast, Benchmark: "lucas", Accesses: 500}},
		{"cmp_h2", core.Options{DesignID: "H2", Policy: cache.Directory, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 125, Cores: 8}},
		{"serve_mixed", serve},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Seed = 1
			art, err := core.Prepare(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := func(eager bool) (res core.Result, ticks, unready uint64) {
				in, err := core.NewInstance(art, nil)
				if err != nil {
					t.Fatal(err)
				}
				if eager {
					for _, e := range in.Sys.Net.Routers {
						router.WakeEager(e)
					}
				}
				if res, err = in.RunToCompletion(); err != nil {
					t.Fatal(err)
				}
				for _, e := range in.Sys.Net.Routers {
					n, u := router.TickCounts(e)
					ticks, unready = ticks+n, unready+u
				}
				return res, ticks, unready
			}
			parked, ticks, unready := run(false)
			eager, eagerTicks, eagerUnready := run(true)
			t.Logf("router ticks: %d parked, %d eager (%d of them with no ready front flit)", ticks, eagerTicks, eagerUnready)
			if !reflect.DeepEqual(parked, eager) {
				t.Fatal("parked routers changed the Result")
			}
			if unready != 0 {
				t.Fatalf("%d parked router ticks found no ready front flit", unready)
			}
			if ticks >= eagerTicks {
				t.Fatalf("parking ticked %d routers, the eager rule %d", ticks, eagerTicks)
			}
		})
	}
}
