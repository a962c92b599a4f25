package main

import (
	"fmt"
	"strconv"
	"time"

	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/cpu"
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

// layerProbes re-executes, standalone and under spans, the exported
// functions of the layers below core that core.Prepare and core.NewInstance
// call for this op, on the op's own artifacts. They run outside the op's
// core.Run span (root "probe"), so they add nothing to the traced op time.
func layerProbes(rec *recorder, op int, art *core.Artifacts) (err error) {
	o, d := art.Opt, art.Design
	span := func(name string, f func()) {
		if err == nil {
			rec.do(op, "probe", name, f)
		}
	}
	newSystem := func(topo *topology.Topology, table *routing.Table) (sys *cache.System) {
		sys, err = cache.NewPrebuilt(sim.NewKernel(), d, o.Policy, o.Mode,
			cache.Prebuilt{Topo: topo, Alg: table, Prechecked: true})
		return sys
	}
	rec.do(op, "", "probe", func() {
		span("core.CanonicalKey", func() { _, err = core.CanonicalKey(o) })
		span("config.Resolve", func() { _, err = config.Resolve(o.DesignID, o.Design) })

		var topo *topology.Topology
		span("topology.Build", func() { topo, err = d.Build() })
		var table *routing.Table
		span("routing.Precompute", func() {
			var alg routing.Algorithm
			if alg, err = routing.For(topo); err == nil {
				table, err = network.Check(topo, alg, d.Router)
			}
		})
		if err != nil {
			return
		}
		rec.count("topology.nodes", float64(topo.NumNodes()))
		rec.count("topology.links", float64(topo.CountLinks()))

		span("trace.Generate", func() {
			am := d.AddrMap()
			for c := 0; c < max(o.Cores, 1); c++ {
				seed := o.Seed
				if o.Cores > 0 {
					seed = cpu.CoreSeed(o.Seed, c)
				}
				gen := trace.NewSynthetic(art.Prof, am, seed)
				gen.WarmBlocks(d.Ways())
				trace.Take(gen, o.Accesses)
			}
		})

		var sys *cache.System
		span("cache.NewPrebuilt", func() { sys = newSystem(topo, table) })
		if o.Cores > 0 {
			span("cmp.Attach", func() { _, err = cmp.Attach(sys, o.Cores) })
		}
		span("cache.Warm", func() { sys.Warm(art.Warm) })

		var img *cache.WarmImage
		span("cache.BuildWarmImage", func() { img = cache.BuildWarmImage(d, art.Warm) })
		if err != nil {
			return
		}
		// The clone needs a second, still cold system; building it is not
		// part of what WarmClone costs.
		cold := newSystem(topo, table)
		if err == nil && o.Cores > 0 {
			_, err = cmp.Attach(cold, o.Cores)
		}
		span("cache.WarmClone", func() { cold.WarmClone(img) })
	})
	return err
}

// probeSizes is the fixed work of each steady-state probe.
type probeSizes struct {
	routerSteps int
	simSteps    int
	cacheAccs   int
	traceNexts  int
	serveCache  int
	schedJobs   int
	telemetry   int // ops with and without probes
}

var fullProbes = probeSizes{
	routerSteps: 60000, simSteps: 2000000, cacheAccs: 3000,
	traceNexts: 1000000, serveCache: 200000, schedJobs: 5000, telemetry: 4,
}

func (ps probeSizes) scaled(f float64) probeSizes {
	s := func(n int) int { return max(int(float64(n)*f), 1) }
	return probeSizes{s(ps.routerSteps), s(ps.simSteps), s(ps.cacheAccs),
		s(ps.traceNexts), s(ps.serveCache), s(ps.schedJobs), s(ps.telemetry)}
}

type nullEndpoint struct{}

func (nullEndpoint) Deliver(*flit.Packet, int64) {}

// probeRouter steps a 16x16 mesh with null endpoints that is kept saturated
// with one block packet per column, multicast (path-delivered to every bank
// of the column) or unicast: switch and VC allocation, replication and
// credit return with the cache protocol out of the picture.
func probeRouter(steps int, multicast bool) (stepNS, hopNS, stepAllocs float64, err error) {
	topo := topology.NewMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 8})
	k := sim.NewKernel()
	net, err := network.New(k, topo, routing.XY{}, router.DefaultConfig())
	if err != nil {
		return 0, 0, 0, err
	}
	for id := 0; id < topo.NumNodes(); id++ {
		net.Attach(id, flit.ToBank, nullEndpoint{})
	}
	// The packets are reused: a new flight is injected only once the network
	// has gone idle, so every earlier flight has fully drained. The probe
	// itself then allocates nothing and step_allocs is the router's own.
	pkts := make([]*flit.Packet, 16)
	for c := range pkts {
		pkts[c] = &flit.Packet{
			Kind: flit.WriteData, Src: topo.Core,
			Dst: topo.NodeAt(c, 15), DstEp: flit.ToBank,
			PathDeliver: multicast,
		}
	}
	inject := func() {
		for _, p := range pkts {
			net.Send(p, k.Now())
		}
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if !k.Step() {
				inject()
			}
		}
	}
	inject()
	run(steps / 10) // ring buffers, replica pool and event heap reach their high-water marks
	hops0, m0, t0 := net.Stats().Router.FlitsRouted, mallocs(), time.Now()
	run(steps)
	d := time.Since(t0)
	m1, hops := mallocs(), net.Stats().Router.FlitsRouted-hops0
	return float64(d) / float64(steps), float64(d) / float64(hops), float64(m1-m0) / float64(steps), nil
}

// rearmer is a self-rearming kernel component: two of three ticks stay hot
// (next-cycle activation), every third parks on a future event.
type rearmer struct {
	k      *sim.Kernel
	id     int
	period int64
	n      int
}

func (c *rearmer) Tick(now int64) bool {
	c.n++
	if c.n%3 == 0 {
		c.k.WakeAt(now+c.period, c.id)
		return false
	}
	return true
}

// probeKernel steps the bare event loop with 64 self-rearming components.
func probeKernel(steps int) (stepNS, stepAllocs float64) {
	k := sim.NewKernel()
	for i := 0; i < 64; i++ {
		c := &rearmer{k: k, period: int64(1 + i%5)}
		c.id = k.Register(c)
		k.WakeAt(c.period, c.id)
	}
	for i := 0; i < steps/10; i++ {
		k.Step()
	}
	m0, t0 := mallocs(), time.Now()
	for i := 0; i < steps; i++ {
		k.Step()
	}
	d := time.Since(t0)
	return float64(d) / float64(steps), float64(mallocs()-m0) / float64(steps)
}

// probeCache issues accesses one at a time into a warm system of the
// workload's design, policy and mode and drains each: the protocol's cost
// per access with no core model and no overlap between accesses.
func probeCache(o core.Options, n int) (accessNS, accessAllocs float64, err error) {
	d, err := config.Resolve(o.DesignID, o.Design)
	if err != nil {
		return 0, 0, err
	}
	prof, err := trace.ProfileByName(o.Benchmark)
	if err != nil {
		return 0, 0, err
	}
	sys, err := cache.New(sim.NewKernel(), *d, o.Policy, o.Mode)
	if err != nil {
		return 0, 0, err
	}
	gen := trace.NewSynthetic(prof, sys.AM, o.Seed)
	sys.Warm(gen.WarmBlocks(d.Ways()))
	accs := trace.Take(gen, n+n/10)
	issue := func(accs []trace.Access) error {
		for _, a := range accs {
			sys.Issue(a.Addr, a.Write, nil)
			if err := sys.Drain(1 << 30); err != nil {
				return err
			}
		}
		return nil
	}
	if err := issue(accs[:n/10]); err != nil {
		return 0, 0, err
	}
	m0, t0 := mallocs(), time.Now()
	if err := issue(accs[n/10:]); err != nil {
		return 0, 0, err
	}
	dur := time.Since(t0)
	return float64(dur) / float64(n), float64(mallocs()-m0) / float64(n), nil
}

// probeTraceNext times the synthetic generator's Next.
func probeTraceNext(o core.Options, n int) (float64, error) {
	d, err := config.Resolve(o.DesignID, o.Design)
	if err != nil {
		return 0, err
	}
	prof, err := trace.ProfileByName(o.Benchmark)
	if err != nil {
		return 0, err
	}
	gen := trace.NewSynthetic(prof, d.AddrMap(), o.Seed)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		gen.Next()
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// probeTelemetry runs the same ops with and without the heatmap and
// queue-occupancy probes and returns how much longer the probed runs took.
func probeTelemetry(w workload, seed uint64, n int) (float64, error) {
	var plain, probed []float64
	for i := 0; i < n; i++ {
		o := w.directOp(seed, i)
		for _, on := range []bool{false, true} {
			if on {
				o.Telemetry = telemetry.Config{Heatmap: true, SampleEvery: 100}
			}
			t0 := time.Now()
			if _, err := core.Run(o); err != nil {
				return 0, err
			}
			if on {
				probed = append(probed, ms(time.Since(t0)))
			} else {
				plain = append(plain, ms(time.Since(t0)))
			}
		}
	}
	return median(probed)/median(plain) - 1, nil
}

// probeServeCache times serve.Cache at its default capacity: Get of a
// resident key, and Put of a new key into a full cache (so each Put evicts).
func probeServeCache(n int) (getNS, putNS float64) {
	const capacity = 1024
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	c := serve.NewCache(capacity)
	body := make([]byte, 1024)
	keys := make([]string, capacity+n)
	for i := range keys {
		keys[i] = key(i)
	}
	for i := 0; i < capacity; i++ {
		c.Put(keys[i], body, core.Result{})
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Get(keys[i%capacity])
	}
	getNS = float64(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		c.Put(keys[capacity+i], body, core.Result{})
	}
	return getNS, float64(time.Since(t0)) / float64(n)
}

// probeSched submits jobs one at a time to an idle serve.Sched with the
// service's worker count and returns the median Submit-to-start wait in us.
func probeSched(n int) (float64, error) {
	s := serve.NewSched(serveWorkers, 0)
	defer s.Close()
	waits := make([]float64, 0, n)
	started := make(chan time.Duration)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := s.Submit("probe", func() { started <- time.Since(t0) }); err != nil {
			return 0, fmt.Errorf("sched probe: %w", err)
		}
		waits = append(waits, float64(<-started)/float64(time.Microsecond))
	}
	return median(waits), nil
}
