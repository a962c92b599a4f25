// Hot-path allocation guards and pool-balance tests. (Timing lives in
// benchmark/: sim.step_ns, router.step_ns, router.flit_hop_ns,
// cache.issue_drain_ns, telemetry.probe_overhead_share; see
// EXPERIMENTS.md "Benchmarking".)
//
// The allocation guards pin the zero-allocation steady-state contract:
// once traffic is in flight, stepping the kernel allocates nothing — no
// scratch slices, no queue growth, no closure captures, no replica
// packets from the GC heap — and a disabled telemetry probe is a branch
// and a return. On top of that, the cache-protocol guard bounds the
// allocations of one full operation to an exact, explainable sum (the
// Request and the op: typed messages are embedded in the op and every
// packet is pooled, so sends, dispatch and chain hops allocate nothing),
// and the pool-balance tests prove no pooled packet — protocol message
// or replica — leaks across full runs on every router engine. The last
// two guards bound nucad's cache-hit path and the canonical key it
// hashes.
package nucanet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/flit"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/serve"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// steadyMesh builds a 16x16 mesh network on the named router engine with
// null endpoints everywhere and returns an injector that launches one
// multicast block packet down every column. With reuse the injector
// re-sends one fixed set of packets (legal once each prior flight has
// fully drained) instead of allocating fresh ones, so a measured region
// is exactly the steady-state network.
func steadyMesh(engine string, reuse bool) (*sim.Kernel, *network.Network, func()) {
	topo := topology.NewMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 8})
	k := sim.NewKernel()
	cfg := router.DefaultConfig()
	cfg.Engine = engine
	net := network.MustNew(k, topo, routing.XY{}, cfg)
	sink := nullEndpoint{}
	for id := 0; id < topo.NumNodes(); id++ {
		net.Attach(id, flit.ToBank, sink)
	}
	var fixed [16]*flit.Packet
	inject := func() {
		for c, p := range fixed {
			if p == nil {
				p = &flit.Packet{
					Kind: flit.WriteData, Src: topo.Core,
					Dst: topo.NodeAt(c, 15), DstEp: flit.ToBank,
					PathDeliver: true,
				}
				if reuse {
					fixed[c] = p
				}
			}
			net.Send(p, k.Now())
		}
	}
	return k, net, inject
}

// steadyStateAllocs keeps the mesh saturated and returns the allocations
// per 200-cycle round once warm. testing.AllocsPerRun invokes the round
// once as warm-up before measuring, which absorbs the one-time growth
// paths (injection-VC ring high-water mark, replica pool population,
// event-heap capacity); warmRounds runs extra rounds first for engines
// whose high-water marks keep creeping.
func steadyStateAllocs(engine string, warmRounds int) float64 {
	k, _, inject := steadyMesh(engine, true)
	inject()
	round := func() {
		for i := 0; i < 200; i++ {
			if !k.Step() {
				inject()
			}
		}
	}
	for i := 0; i < warmRounds; i++ {
		round()
	}
	return testing.AllocsPerRun(50, round)
}

// steadyMeshPoolBalanced drains the saturated mesh and checks the replica
// freelist's leak invariant at the network level: every pooled packet
// handed out came back exactly once.
func steadyMeshPoolBalanced(t *testing.T, engine string) {
	k, net, inject := steadyMesh(engine, false)
	for round := 0; round < 20; round++ {
		inject()
		for k.Step() {
		}
	}
	if got := net.InFlight(); got != 0 {
		t.Fatalf("network did not drain: %d flits in flight", got)
	}
	ps := net.PoolStats()
	if ps.Gets == 0 {
		t.Fatal("no replicas were spawned; the multicast path did not run")
	}
	if ps.Live != 0 || ps.Gets != ps.Puts {
		t.Fatalf("replica pool leak: gets=%d puts=%d live=%d", ps.Gets, ps.Puts, ps.Live)
	}
}

// rearmingComp is a self-rearming component: two of three ticks stay
// hot (Activate), every third parks on a future event (WakeAt) — the mix
// that exercises the scheduled-id list and the event heap together.
type rearmingComp struct {
	k      *sim.Kernel
	id     int
	period int64
	n      int
}

func (c *rearmingComp) Tick(now int64) bool {
	c.n++
	if c.n%3 == 0 {
		c.k.WakeAt(now+c.period, c.id)
		return false
	}
	return true
}

func rearmingPopulation(k *sim.Kernel, n int) {
	for i := 0; i < n; i++ {
		c := &rearmingComp{k: k, period: int64(1 + i%5)}
		c.id = k.Register(c)
		k.WakeAt(c.period, c.id)
	}
}

// TestRouterSteadyStateZeroAlloc pins the tentpole contract: once warm,
// a router/network cycle allocates nothing — no switch-allocation
// scratch, no VC queue growth, no credit-return closures, no replica
// packets from the GC heap.
func TestRouterSteadyStateZeroAlloc(t *testing.T) {
	if avg := steadyStateAllocs(router.DefaultEngine, 0); avg != 0 {
		t.Fatalf("steady-state network cycle allocates: %.2f allocs per 200 cycles, want 0", avg)
	}
}

// TestBufferlessSteadyStateZeroAlloc extends the zero-allocation
// steady-state contract to the bufferless deflection engine — the cycle
// kernel the Pareto sweep sells as the cheapest one, which it only is if
// deflection arbitration runs entirely on preallocated scratch. Warm-up
// absorbs the latch-ring high-water marks and the source-expansion
// replica pool; after that, route computation, age sorting, deflection,
// and ejection must allocate nothing. The 200-cycle rounds do not align
// with the network's drain period, so high-water marks (latch rings, the
// replica pool) keep creeping for a couple of rounds — five warm rounds
// run the population past them before AllocsPerRun measures.
func TestBufferlessSteadyStateZeroAlloc(t *testing.T) {
	if avg := steadyStateAllocs("bufferless", 5); avg != 0 {
		t.Fatalf("steady-state bufferless cycle allocates: %.2f allocs per 200 cycles, want 0", avg)
	}
}

// TestBufferlessSteadyMeshPoolBalanced is the leak invariant for
// source-expanded multicast: every pooled replica the bufferless
// injector minted came back exactly once after drain.
func TestBufferlessSteadyMeshPoolBalanced(t *testing.T) {
	steadyMeshPoolBalanced(t, "bufferless")
}

// TestKernelStepZeroAlloc pins the kernel's half of the contract: Step
// with a self-rearming component population touches only reused slices
// and the typed event heap — zero allocations per cycle.
func TestKernelStepZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	rearmingPopulation(k, 64)
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 200; i++ {
			k.Step()
		}
	})
	if avg != 0 {
		t.Fatalf("kernel Step allocates: %.2f allocs per 200 cycles, want 0", avg)
	}
}

// TestSteadyMeshReplicaPoolBalanced is the same invariant for the
// wormhole router's hybrid replication.
func TestSteadyMeshReplicaPoolBalanced(t *testing.T) {
	steadyMeshPoolBalanced(t, router.DefaultEngine)
}

// allocGuardDesign is a small 4x4 mesh (4 single-way banks per column)
// so the per-access allocation count below stays an exact, explainable
// sum rather than a noisy Design-A-sized number.
func allocGuardDesign() config.Design {
	banks := make([]bank.Spec, 4)
	for i := range banks {
		banks[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return config.Design{
		ID: "AG", Description: "alloc-guard mesh",
		Topology: "mesh",
		Params: topology.Params{W: 4, H: 4, CoreX: 2, MemX: 2,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: banks, Router: router.DefaultConfig(),
	}
}

// TestCacheAccessAllocBound pins the protocol-layer allocation contract:
// one access allocates exactly its Request and its op, and nothing per
// send. Every protocol message, the probed mask and the memory read
// request are embedded in the op; every packet — the probe, each bank's
// reply, chain hops, the off-chip read and its fill — comes from the
// network's packet pool and returns to it at ejection; and a scheduled
// send is a (cycle, packet) entry in the agent's send queue, not a
// closure. Cycles in between — flits in flight, bank bookings, stash
// replay, message dispatch — allocate nothing either; the network's own
// zero-alloc guard above covers the router half. A packet literal, a
// timer closure or a per-hop payload creeping back in trips the bound on
// the first send.
func TestCacheAccessAllocBound(t *testing.T) {
	d := allocGuardDesign()
	k := sim.NewKernel()
	sys := cache.MustNew(k, d, cache.FastLRU, cache.Multicast)
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewSynthetic(p, sys.AM, 1)
	sys.Warm(gen.WarmBlocks(d.Ways()))
	warm := gen.WarmBlocks(1)

	// MRU hits: every access takes the identical minimal path, so the
	// average over runs is the exact per-access count.
	hitAddr := sys.AM.Compose(warm[0*sys.AM.Columns+1][0], 0, 1)
	hit := testing.AllocsPerRun(100, func() {
		sys.Issue(hitAddr, false, nil)
		for k.Step() {
		}
	})
	// The Request and the op; the probe, the MRU bank's data reply and
	// the other three banks' miss notifications ride pooled packets.
	const maxHitAllocs = 2
	if hit > maxHitAllocs {
		t.Fatalf("MRU hit allocates %.1f objects per access, want <= %d", hit, maxHitAllocs)
	}

	// Misses exercise the long path: full multicast miss, off-chip read
	// (embedded in the op — no boxing), fill, and a full-length eviction
	// chain reusing one chain message end to end — still only the
	// Request and the op.
	tag := uint64(1 << 20)
	miss := testing.AllocsPerRun(100, func() {
		sys.Issue(sys.AM.Compose(tag, 3, 2), false, nil)
		tag++
		for k.Step() {
		}
	})
	const maxMissAllocs = 2
	if miss > maxMissAllocs {
		t.Fatalf("full miss allocates %.1f objects per access, want <= %d", miss, maxMissAllocs)
	}
	t.Logf("allocations per access: MRU hit %.1f, full miss %.1f", hit, miss)
}

// TestCacheRunPacketPoolBalanced is the packet pool's leak invariant end
// to end through the cache protocol, on every registered router engine:
// a multicast Fast-LRU run (probe replicas), a unicast LRU run on lucas
// (replacement chains, write-backs, memory replies), and one 4-core H2
// directory run (the CMP ports' forwarding envelopes). After drain no
// packet is live, every packet handed out came back exactly once, and
// the pool handed out at least as many packets as were injected — every
// protocol packet, not only the routers' replicas, is pooled.
func TestCacheRunPacketPoolBalanced(t *testing.T) {
	accesses := 2000
	if testing.Short() {
		accesses = 500
	}
	type run struct {
		name string
		opt  core.Options
	}
	var runs []run
	for _, eng := range router.Names() {
		runs = append(runs,
			run{eng + "/A-multicast-fastlru-gcc", core.Options{DesignID: "A", Policy: cache.FastLRU,
				Mode: cache.Multicast, Benchmark: "gcc", Accesses: accesses, Router: eng}},
			run{eng + "/A-unicast-lru-lucas", core.Options{DesignID: "A", Policy: cache.LRU,
				Mode: cache.Unicast, Benchmark: "lucas", Accesses: accesses, Router: eng}})
	}
	runs = append(runs, run{"H2-directory-4core", core.Options{DesignID: "H2", Policy: cache.Directory,
		Mode: cache.Multicast, Benchmark: "gcc", Accesses: accesses / 4, Cores: 4}})
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Seed = 7
			art, err := core.Prepare(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			in, err := core.NewInstance(art, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			ps := in.Sys.Net.PoolStats()
			if ps.Live != 0 || ps.Gets != ps.Puts {
				t.Fatalf("packet pool leak after full run: gets=%d puts=%d live=%d", ps.Gets, ps.Puts, ps.Live)
			}
			if inj := in.Sys.Net.Stats().PacketsInjected; inj == 0 || ps.Gets < inj {
				t.Fatalf("pool handed out %d packets but %d were injected: a protocol packet bypassed the pool", ps.Gets, inj)
			}
		})
	}
}

// TestDisabledProbeHotPathAllocFree pins the telemetry contract the
// simulator's hot loops rely on: with probes disabled (nil collector),
// every probe site is a branch-and-return that allocates nothing.
func TestDisabledProbeHotPathAllocFree(t *testing.T) {
	var c *telemetry.Collector
	f := flit.Flit{Pkt: &flit.Packet{ID: 9, Kind: flit.ReadReq}, Seq: 0, Head: true}
	allocs := testing.AllocsPerRun(1000, func() {
		c.FlitInjected(3, f, 12)
		c.VCAllocated(3, f.Pkt, 12, 1, 2)
		c.FlitRouted(3, f, 12, 1, 2)
		c.FlitEjected(4, f, 13, 0)
		c.ReplicaForked(4, f, 13, 2, 1)
		c.BankAccess(5, 7)
		c.BankHit(5, 7)
		c.Sample(100, 17, 3)
		c.Finish(200)
	})
	if allocs != 0 {
		t.Fatalf("disabled probe path allocates %.1f per op, want 0", allocs)
	}
}

// TestCanonicalKeyAllocBound pins the memoised key: a catalogue design
// resolves to its process-wide entry, so hashing splices the entry's
// pre-encoded design into one SHA-256 with the encoding of the small
// remaining fields — no topology build, no design marshal. The key
// string is the one allocation left (reads 1).
func TestCanonicalKeyAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	o := core.DefaultOptions()
	o.DesignID = "F"
	if _, err := core.CanonicalKey(o); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.CanonicalKey(o); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 6
	if allocs > maxAllocs {
		t.Fatalf("CanonicalKey on a catalogue id allocates %.1f objects, want <= %d", allocs, maxAllocs)
	}
	t.Logf("CanonicalKey: %.1f allocations", allocs)
}

// TestServeHitAllocBound bounds a nucad cache hit — decode, option
// checks, key, lookup, response — through the service's own handler. The
// request is built and the response discarded outside the handler, as
// net/http does; what is left is the hit path itself (reads 26; 353
// before the design memo).
func TestServeHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	const runs = 50
	reqs := make([]*http.Request, runs+2)
	ws := make([]*discardWriter, runs+2)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/run",
			strings.NewReader(`{"design":"F","accesses":400,"seed":1}`))
		reqs[i].Header.Set("X-Client", "c")
		ws[i] = &discardWriter{h: http.Header{}}
	}
	h.ServeHTTP(ws[0], reqs[0])
	if ws[0].status != 0 || ws[0].h.Get("X-Nucad-Cache") != "miss" {
		t.Fatalf("priming request: status %d, cache %q", ws[0].status, ws[0].h.Get("X-Nucad-Cache"))
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(ws[next], reqs[next])
		next++
	})
	for _, w := range ws[1:] {
		if w.h.Get("X-Nucad-Cache") != "hit" {
			t.Fatalf("a measured request was not a cache hit: status %d, cache %q", w.status, w.h.Get("X-Nucad-Cache"))
		}
	}
	const maxAllocs = 60
	if allocs > maxAllocs {
		t.Fatalf("a nucad cache hit allocates %.1f objects, want <= %d", allocs, maxAllocs)
	}
	t.Logf("cache hit: %.1f allocations", allocs)
}

// discardWriter is an http.ResponseWriter that keeps the header and
// drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

type nullEndpoint struct{}

func (nullEndpoint) Deliver(*flit.Packet, int64) {}
