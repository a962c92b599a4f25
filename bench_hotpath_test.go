// Hot-path benchmarks and allocation guards (see EXPERIMENTS.md
// "Benchmarking").
//
// Three layers, innermost first:
//
//   - BenchmarkKernelRun: the raw sim.Kernel event loop (Step, Activate,
//     WakeAt) with a mixed population of self-rearming components;
//   - BenchmarkRouterSteadyState: a saturated 16x16 mesh moving multicast
//     block packets down every column — switch allocation, VC allocation,
//     hybrid replication, and credit return, with the cache protocol out
//     of the picture;
//   - BenchmarkCoreRun: the full simulation (cache protocol + CPU model)
//     on designs A, D, and F — the end-to-end number the ROADMAP's
//     "as fast as the hardware allows" goal is graded on.
//
// The allocation guards pin the zero-allocation steady-state contract:
// once traffic is in flight, stepping the kernel allocates nothing — no
// scratch slices, no queue growth, no closure captures, no replica
// packets from the GC heap. On top of that, the cache-protocol guard
// bounds the allocations of one full operation to an exact, explainable
// sum (the Request and the op: typed messages are embedded in the op and
// every packet is pooled, so sends, dispatch and chain hops allocate
// nothing), and the pool-balance tests prove no pooled packet — protocol
// message or replica — leaks across full runs on every router engine.
package nucanet

import (
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/flit"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// coreRunAccesses matches the acceptance configuration: design X / gcc /
// 10k measured accesses.
const coreRunAccesses = 10000

// steadyMesh builds a 16x16 mesh network with null endpoints everywhere
// and returns an injector that launches one multicast block packet down
// every column.
func steadyMesh() (*sim.Kernel, *network.Network, func()) {
	return steadyMeshEngine(router.DefaultEngine)
}

// steadyMeshEngine is steadyMesh with a registry router engine selected.
func steadyMeshEngine(engine string) (*sim.Kernel, *network.Network, func()) {
	topo := topology.NewMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 8})
	k := sim.NewKernel()
	cfg := router.DefaultConfig()
	cfg.Engine = engine
	net := network.MustNew(k, topo, routing.XY{}, cfg)
	sink := nullEndpoint{}
	for id := 0; id < topo.NumNodes(); id++ {
		net.Attach(id, flit.ToBank, sink)
	}
	inject := func() {
		for c := 0; c < 16; c++ {
			net.Send(&flit.Packet{
				Kind: flit.WriteData, Src: topo.Core,
				Dst: topo.NodeAt(c, 15), DstEp: flit.ToBank,
				PathDeliver: true,
			}, k.Now())
		}
	}
	return k, net, inject
}

// BenchmarkRouterSteadyState measures per-cycle router cost on a mesh
// kept saturated with multicast block traffic; ns/op is one kernel step
// (one active cycle across all routers with buffered flits).
func BenchmarkRouterSteadyState(b *testing.B) {
	k, net, inject := steadyMesh()
	inject()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			inject()
		}
	}
	b.StopTimer()
	st := net.Stats()
	b.ReportMetric(float64(st.Router.FlitsRouted)/float64(b.N), "flit-hops/cycle")
	b.ReportMetric(float64(st.Router.ReplicasSpawned)/float64(b.N), "replicas/cycle")
}

// kernelBenchComp is a self-rearming component: two of three ticks stay
// hot (Activate), every third parks on a future event (WakeAt) — the mix
// that exercises the scheduled-id list and the event heap together.
type kernelBenchComp struct {
	k      *sim.Kernel
	id     int
	period int64
	n      int
}

func (c *kernelBenchComp) Tick(now int64) bool {
	c.n++
	if c.n%3 == 0 {
		c.k.WakeAt(now+c.period, c.id)
		return false
	}
	return true
}

func kernelBenchPopulation(k *sim.Kernel, n int) {
	for i := 0; i < n; i++ {
		c := &kernelBenchComp{k: k, period: int64(1 + i%5)}
		c.id = k.Register(c)
		k.WakeAt(c.period, c.id)
	}
}

// BenchmarkKernelRun measures the simulation kernel's event loop with 64
// components cycling between next-cycle activations and future events.
func BenchmarkKernelRun(b *testing.B) {
	k := sim.NewKernel()
	kernelBenchPopulation(k, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// TestRouterSteadyStateZeroAlloc pins the tentpole contract: once warm,
// a router/network cycle allocates nothing — no switch-allocation
// scratch, no VC queue growth, no credit-return closures, no replica
// packets from the GC heap. Injection reuses a fixed set of packets
// (legal once each prior flight has fully drained), so the measured
// region is exactly the steady-state network.
//
// testing.AllocsPerRun invokes the function once as warm-up before
// measuring, which absorbs the one-time growth paths (injection-VC ring
// high-water mark, replica pool population, event-heap capacity).
func TestRouterSteadyStateZeroAlloc(t *testing.T) {
	k, net, _ := steadyMesh()
	topo := net.Topo
	pkts := make([]*flit.Packet, 16)
	for c := range pkts {
		pkts[c] = &flit.Packet{
			Kind: flit.WriteData, Src: topo.Core,
			Dst: topo.NodeAt(c, 15), DstEp: flit.ToBank,
			PathDeliver: true,
		}
	}
	inject := func() {
		for _, p := range pkts {
			net.Send(p, k.Now())
		}
	}
	inject()
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 200; i++ {
			if !k.Step() {
				inject()
			}
		}
	})
	if avg != 0 {
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
// replica pool) keep creeping for a couple of rounds — the explicit warm
// loop below runs the population past them before AllocsPerRun measures.
func TestBufferlessSteadyStateZeroAlloc(t *testing.T) {
	k, net, _ := steadyMeshEngine("bufferless")
	topo := net.Topo
	pkts := make([]*flit.Packet, 16)
	for c := range pkts {
		pkts[c] = &flit.Packet{
			Kind: flit.WriteData, Src: topo.Core,
			Dst: topo.NodeAt(c, 15), DstEp: flit.ToBank,
			PathDeliver: true,
		}
	}
	inject := func() {
		for _, p := range pkts {
			net.Send(p, k.Now())
		}
	}
	inject()
	round := func() {
		for i := 0; i < 200; i++ {
			if !k.Step() {
				inject()
			}
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	avg := testing.AllocsPerRun(50, round)
	if avg != 0 {
		t.Fatalf("steady-state bufferless cycle allocates: %.2f allocs per 200 cycles, want 0", avg)
	}
}

// TestBufferlessSteadyMeshPoolBalanced is the replica-freelist leak
// invariant for source-expanded multicast: every pooled replica the
// bufferless injector minted came back exactly once after drain.
func TestBufferlessSteadyMeshPoolBalanced(t *testing.T) {
	k, net, inject := steadyMeshEngine("bufferless")
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
		t.Fatal("no replicas were spawned; source-expanded multicast did not run")
	}
	if ps.Live != 0 || ps.Gets != ps.Puts {
		t.Fatalf("replica pool leak: gets=%d puts=%d live=%d", ps.Gets, ps.Puts, ps.Live)
	}
}

// TestKernelStepZeroAlloc pins the kernel's half of the contract: Step
// with a self-rearming component population touches only reused slices
// and the typed event heap — zero allocations per cycle.
func TestKernelStepZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	kernelBenchPopulation(k, 64)
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 200; i++ {
			k.Step()
		}
	})
	if avg != 0 {
		t.Fatalf("kernel Step allocates: %.2f allocs per 200 cycles, want 0", avg)
	}
}

// TestSteadyMeshReplicaPoolBalanced drains the saturated mesh and checks
// the replica freelist's leak invariant at the network level: every
// pooled packet handed out came back exactly once.
func TestSteadyMeshReplicaPoolBalanced(t *testing.T) {
	k, net, inject := steadyMesh()
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

// routerEngineBenchAccesses keeps the engine x design product affordable
// while still long enough for steady-state rates.
const routerEngineBenchAccesses = 2000

// BenchmarkRouterEngines measures the end-to-end cost of every
// registered router microarchitecture on the mesh (A), simplified-mesh
// (D), and halo (F) representatives — the per-engine latency axis of the
// Pareto sweep.
func BenchmarkRouterEngines(b *testing.B) {
	for _, eng := range router.Names() {
		for _, id := range []string{"A", "D", "F"} {
			eng, id := eng, id
			b.Run(eng+"/design-"+id, func(b *testing.B) {
				var r core.Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = core.Run(core.Options{
						DesignID: id, Policy: cache.FastLRU, Mode: cache.Multicast,
						Benchmark: "gcc", Accesses: routerEngineBenchAccesses,
						Seed: 42, Router: eng,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(float64(r.Cycles)/float64(routerEngineBenchAccesses), "cycles/access")
			})
		}
	}
}

// BenchmarkCoreRun measures the full simulation end to end — the
// acceptance configuration for the hot-path work: gcc, 10k accesses,
// multicast Fast-LRU, on the mesh (A), simplified-mesh (D), and halo (F)
// representatives.
func BenchmarkCoreRun(b *testing.B) {
	for _, id := range []string{"A", "D", "F"} {
		id := id
		b.Run("design-"+id, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.Run(core.Options{
					DesignID: id, Policy: cache.FastLRU, Mode: cache.Multicast,
					Benchmark: "gcc", Accesses: coreRunAccesses, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC, "IPC")
			b.ReportMetric(float64(r.Cycles)/float64(coreRunAccesses), "cycles/access")
		})
	}
}
