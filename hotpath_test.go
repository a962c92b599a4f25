// Hot-path allocation guards and pool-balance tests. (Timing lives in
// benchmark/: sim.step_ns, router.step_ns, router.flit_hop_ns,
// cache.issue_drain_ns, telemetry.probe_overhead_share; see
// EXPERIMENTS.md "Benchmarking".)
//
// The allocation guards pin the zero-allocation steady-state contract:
// once traffic is in flight, stepping the kernel allocates nothing — no
// scratch slices, no queue growth, no closure captures, no replica
// packets from the GC heap — and a disabled telemetry probe is a branch
// and a return. On top of that, the cache-protocol guards pin one full
// access at zero allocations, single-core and through a CMP port (the
// issuer owns its Request, ops and port ops are recycled once their last
// message lands, typed messages are embedded in the op and every packet
// is pooled, so sends, dispatch and chain hops allocate nothing), and the
// pool-balance tests prove no pooled packet — protocol message or
// replica — leaks across full runs on every router engine. The last two
// guards bound nucad's cache-hit path and the canonical key it hashes.
package nucanet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/cmp"
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
	topo := topology.MustBuild("mesh", topology.Params{W: 16, H: 16, CoreX: 7, MemX: 8})
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
// hot (Activate), every third parks on a future wake-up (WakeAt) — the
// mix that exercises the timing wheel and, for periods beyond its
// horizon, the event heap together.
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

// rearmingPeriods mixes wheel wake-ups with far ones: the kernel's wheel
// spans 64 cycles.
var rearmingPeriods = []int64{1, 2, 3, 4, 5, 63, 64, 65, 150}

func rearmingPopulation(k *sim.Kernel, n int) {
	for i := 0; i < n; i++ {
		c := &rearmingComp{k: k, period: rearmingPeriods[i%len(rearmingPeriods)]}
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
// with a self-rearming component population touches only the wheel's
// bitmaps, reused slices and the typed event heap — zero allocations per
// cycle, on the wheel and the heap path alike.
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

// warmGuardSystem builds the alloc-guard system under policy, warmed
// from gcc, and returns it with the MRU tag of every (set, column).
func warmGuardSystem(t *testing.T, k *sim.Kernel, policy cache.Policy) (*cache.System, [][]uint64) {
	t.Helper()
	d := allocGuardDesign()
	sys := cache.MustNew(k, d, policy, cache.Multicast)
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewSynthetic(p, sys.AM, 1)
	sys.Warm(gen.WarmBlocks(d.Ways()))
	return sys, gen.WarmBlocks(1)
}

// accessAllocs measures one access per run through submit, reissuing
// the one caller-owned request: warm MRU hits at (set 0, col), which
// take the identical minimal path every time, and full misses to fresh
// tags at (set 3, col). The first access of each kind primes the
// one-time growth (free lists, the memory's outbox, the kernel's
// far-event heap) outside the measurement.
func accessAllocs(k *sim.Kernel, am trace.AddrMap, hitTag uint64, col int, submit func(*cache.Request)) (hit, miss float64) {
	r := &cache.Request{}
	access := func(addr uint64) {
		r.Addr = addr
		submit(r)
		for k.Step() {
		}
	}
	hitAddr := am.Compose(hitTag, 0, col)
	access(hitAddr)
	hit = testing.AllocsPerRun(100, func() { access(hitAddr) })
	tag := uint64(1 << 20)
	access(am.Compose(tag, 3, col))
	miss = testing.AllocsPerRun(100, func() {
		tag++
		access(am.Compose(tag, 3, col))
	})
	return hit, miss
}

// TestCacheAccessAllocBound pins the protocol-layer allocation contract:
// a warm access allocates nothing. The issuer owns its Request and
// reuses it; the op comes from the system's free list and returns there
// once its last message has landed; every protocol message, the probed
// mask and the memory read request are embedded in the op; every packet
// — the probe, each bank's reply, chain hops, the off-chip read and its
// fill — comes from the network's packet pool and returns to it at
// ejection; and a scheduled send is a (cycle, packet) entry in the
// agent's outbox, not a closure. MRU hits exercise the probe, the
// MRU bank's data reply and the other three banks' miss notifications;
// full misses the multicast miss, off-chip read, fill and a full-length
// eviction chain. A packet literal, a timer closure, a per-hop payload or
// an op that never returns to its free list trips the bound on the first
// access.
func TestCacheAccessAllocBound(t *testing.T) {
	k := sim.NewKernel()
	sys, warm := warmGuardSystem(t, k, cache.FastLRU)
	const col = 1
	hit, miss := accessAllocs(k, sys.AM, warm[col][0], col, sys.Submit)
	if hit != 0 || miss != 0 {
		t.Fatalf("a warm access allocates: MRU hit %.2f, full miss %.2f objects, want 0", hit, miss)
	}
}

// TestCMPPortAccessAllocBound is the same contract through a CMP port of
// a two-core fabric under the directory policy: the port's record of the
// access (its home request and forwarding envelopes) is recycled once
// the issuer's Done has returned, so neither a local access (column
// homed on the port's own controller) nor a remote one (request and data
// crossing the top row) allocates.
func TestCMPPortAccessAllocBound(t *testing.T) {
	k := sim.NewKernel()
	sys, warm := warmGuardSystem(t, k, cache.Directory)
	fab, err := cmp.Attach(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	port := fab.Port(0) // at x=1: columns 0-2 are homed here, column 3 on port 1
	for _, tc := range []struct {
		name string
		col  int
	}{{"local", 1}, {"remote", 3}} {
		before := port.LocalIssues
		hit, miss := accessAllocs(k, sys.AM, warm[tc.col][0], tc.col, port.Submit)
		if local := port.LocalIssues > before; local != (tc.name == "local") {
			t.Fatalf("%s column %d: access was homed locally=%v", tc.name, tc.col, local)
		}
		if hit != 0 || miss != 0 {
			t.Fatalf("a warm %s CMP access allocates: MRU hit %.2f, full miss %.2f objects, want 0", tc.name, hit, miss)
		}
	}
	if p := fab.Pending(); p != 0 {
		t.Fatalf("%d accesses still pending across the fabric", p)
	}
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
// resolves to the default runtime's entry, so hashing splices the
// entry's pre-encoded design into one SHA-256 with the encoding of the
// small remaining fields — no topology build, no design marshal. The key
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
// net/http does; what is left is the hit path itself (reads 13; 26
// while the design check built the catalogue, 353 before the design
// memo).
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
	const maxAllocs = 16
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
