package core

import (
	"fmt"
	"slices"
	"sync"

	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/energy"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// This file splits Run into the two halves batch evaluation needs:
// Prepare produces the run's immutable artifacts (resolved design,
// topology, routing table, warm-state table, access stream) and
// NewInstance assembles the mutable simulation state (kernel, cache
// system, core) over them. Run is Prepare + NewInstance + run-to-idle,
// preserving the pre-split construction sequence exactly — the 48
// regression goldens and TestEngineBitIdentity are the proof.
// Engine.RunAll shares one PrepCache across a batch and builds every
// lane's Instance over the shared Artifacts.

// Artifacts is everything about a run that is immutable once prepared.
// All reference fields are shared read-only: many Instances — on one
// goroutine or several — may be built over the same Artifacts, and
// Artifacts of different runs may alias the same Topo/Table/Accs through
// a PrepCache and the same Warm/WarmImg through the process-wide warm
// state.
type Artifacts struct {
	Opt    Options       // original options, recorded in Result.Options
	Design config.Design // resolved, router-normalized, validated
	Prof   trace.Profile
	Topo   *topology.Topology
	Table  *routing.Table
	Warm   [][]uint64     // WarmBlocks table for the design's 16 ways
	Accs   []trace.Access // the measured access stream (single-core runs)
	CPU    cpu.Config     // normalized core model config

	// CoreAccs holds the per-core access streams of a CMP run (Options.
	// Cores >= 1): core i's stream, already offset into its private tag
	// range. Accs is nil in that mode, and Warm is the cores' interleaved
	// warm table (cmp.MergeWarm).
	CoreAccs [][]trace.Access

	// WarmImg is the precomputed post-warm-up bank state for (bank stack,
	// Warm); NewInstance clones it instead of replaying Warm's insert
	// stream. Every Prepare sets it.
	WarmImg *cache.WarmImage
}

// PrepCache shares Prepare's expensive immutable artifacts across the
// runs of a batch: the (topology, routing table, static verification)
// triple per distinct design and the access streams per distinct
// (benchmark, seed, geometry, accesses) key. It also pins every warm
// state the batch uses, so a batch builds each at most once however
// many the process-wide cache (sharedWarm) retains. A nil *PrepCache
// shares only that process-wide warm state. The maps are unguarded:
// Prepare with one PrepCache from one goroutine at a time (Engine.RunAll
// prepares its whole batch before fanning out); what Prepare returns is
// immutable and may be read from any number.
type PrepCache struct {
	designs map[string]*designEntry
	traces  map[traceKey]*traceEntry
	warms   map[warmKey]*warmState
}

// NewPrepCache returns an empty artifact cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{
		designs: map[string]*designEntry{},
		traces:  map[traceKey]*traceEntry{},
		warms:   map[warmKey]*warmState{},
	}
}

// designEntry caches per-design construction of an already validated
// design: err is the network-construction gate (engine progress proof +
// Supports) that cache/network construction would raise.
type designEntry struct {
	topo *topology.Topology
	tb   *routing.Table
	err  error
}

type traceKey struct {
	bench    string
	seed     uint64
	columns  int
	sets     int
	ways     int
	accesses int
	cores    int // 0 = classic single-core stream
}

type traceEntry struct {
	accs     []trace.Access
	coreAccs [][]trace.Access
}

// warmKey identifies a warm L2 state. The generator's warm table is a
// function of the address geometry alone — no seed, no benchmark (see
// trace.Synthetic.WarmBlocks) — cores says how many private tag ranges
// interleave in it, and the bank-stack string how its ways split into
// banks. Designs differing only in placement, router or workload share
// one state.
type warmKey struct {
	columns, sets, ways int
	cores               int // 0 = classic single-core table
	banks               string
}

// warmState is one warm table and the bank image warmed from it, built
// on first use and immutable afterwards.
type warmState struct {
	key   warmKey
	once  sync.Once
	table [][]uint64
	img   *cache.WarmImage
}

// maxSharedWarm bounds the process-wide warm cache. A state is a
// 2.5 MB table plus a bank image of about 10 MB, and a process rarely
// alternates between more than a few (bank stack, core count) pairs.
const maxSharedWarm = 4

// sharedWarm is the process-wide warm cache. The mutex guards the list
// only; a state is built outside it, under the state's own once, so
// distinct keys warm concurrently.
var sharedWarm struct {
	sync.Mutex
	mru []*warmState // most recently used first, at most maxSharedWarm
}

// sharedWarmFor returns the process-wide state for key, inserting an
// unbuilt one in place of the least recently used when it is absent.
func sharedWarmFor(key warmKey) *warmState {
	sw := &sharedWarm
	sw.Lock()
	defer sw.Unlock()
	i := slices.IndexFunc(sw.mru, func(ws *warmState) bool { return ws.key == key })
	if i < 0 {
		if len(sw.mru) < maxSharedWarm {
			sw.mru = append(sw.mru, nil)
		}
		i = len(sw.mru) - 1
		sw.mru[i] = &warmState{key: key}
	}
	ws := sw.mru[i]
	copy(sw.mru[1:i+1], sw.mru[:i])
	sw.mru[0] = ws
	return ws
}

// warmFor resolves the warm table and image of a design: the batch's
// pinned state when pc has one, the process-wide state otherwise.
func (pc *PrepCache) warmFor(d config.Design, prof trace.Profile, cores int) *warmState {
	am := d.AddrMap()
	key := warmKey{am.Columns, am.Sets, d.Ways(), cores, fmt.Sprint(d.Banks)}
	if pc != nil {
		if ws, ok := pc.warms[key]; ok {
			return ws
		}
	}
	ws := sharedWarmFor(key)
	ws.once.Do(func() {
		ws.table = trace.NewSynthetic(prof, am, 0).WarmBlocks(d.Ways())
		if cores > 0 {
			ws.table = cmp.MergeWarm(am, d.Ways(), ws.table, cores)
		}
		ws.img = cache.BuildWarmImage(d, ws.table)
	})
	if pc != nil {
		pc.warms[key] = ws
	}
	return ws
}

// design resolves the per-design entry of a design checkOptions accepted,
// computing and (when pc is non-nil) caching it under the design's
// canonical encoding.
func (pc *PrepCache) design(rd *resolvedDesign) *designEntry {
	if pc != nil {
		if e, ok := pc.designs[string(rd.head)]; ok {
			return e
		}
	}
	e := &designEntry{}
	if e.topo, e.err = rd.d.Build(); e.err == nil {
		var alg routing.Algorithm
		if alg, e.err = routing.For(e.topo); e.err == nil {
			e.tb, e.err = network.Check(e.topo, alg, rd.d.Router)
		}
	}
	if pc != nil {
		pc.designs[string(rd.head)] = e
	}
	return e
}

// traceFor resolves the access stream, sharing across designs with the
// same address geometry and total ways. cores >= 1 produces the CMP
// form: per-core streams offset into private tag ranges (seeded by
// cpu.CoreSeed so core 0 replays the classic stream).
func (pc *PrepCache) traceFor(d config.Design, prof trace.Profile, seed uint64, accesses, cores int) *traceEntry {
	am := d.AddrMap()
	key := traceKey{prof.Name, seed, am.Columns, am.Sets, d.Ways(), accesses, cores}
	if pc != nil {
		if e, ok := pc.traces[key]; ok {
			return e
		}
	}
	e := &traceEntry{}
	if cores < 1 {
		e.accs = trace.Take(trace.NewSynthetic(prof, am, seed), accesses)
	} else {
		e.coreAccs = make([][]trace.Access, cores)
		for i := range e.coreAccs {
			accs := trace.Take(trace.NewSynthetic(prof, am, cpu.CoreSeed(seed, i)), accesses)
			for j := range accs {
				accs[j].Addr = cmp.OffsetAddr(am, accs[j].Addr, i)
			}
			e.coreAccs[i] = accs
		}
	}
	if pc != nil {
		pc.traces[key] = e
	}
	return e
}

// Prepare resolves and validates opt into the run's immutable artifacts.
// Option checks (checkOptions) come first, then the network construction
// gates — the order the monolithic Run surfaced the same errors in.
func Prepare(opt Options, pc *PrepCache) (*Artifacts, error) {
	rd, prof, err := checkOptions(opt)
	if err != nil {
		return nil, err
	}
	de := pc.design(rd)
	if de.err != nil {
		return nil, de.err
	}
	d := rd.design()
	te := pc.traceFor(d, prof, opt.Seed, opt.Accesses, opt.Cores)
	ws := pc.warmFor(d, prof, opt.Cores)
	return &Artifacts{
		Opt: opt, Design: d, Prof: prof,
		Topo: de.topo, Table: de.tb,
		Warm: ws.table, WarmImg: ws.img,
		Accs: te.accs, CoreAccs: te.coreAccs,
		CPU: normalizedCPU(opt),
	}, nil
}

// Instance is one assembled simulation: a kernel, the cache system, and
// the trace-driven core (or, in CMP mode, the fabric and one core per
// port), built over shared Artifacts and driven by RunToCompletion.
type Instance struct {
	Art *Artifacts
	K   *sim.Kernel
	Sys *cache.System
	C   *cpu.Core // the classic single core; nil in CMP mode
	// Fab and cores are the CMP form (Options.Cores >= 1): the fabric
	// attachment over Sys and one trace-driven core per port.
	Fab   *cmp.Fabric
	cores []*cpu.Core
	tel   *telemetry.Collector
}

// NewInstance assembles the mutable simulation state over art. ar, when
// non-nil, is the construction arena the lanes of one batch worker
// recycle (see router.Arena); it must not be shared across goroutines.
func NewInstance(art *Artifacts, ar *router.Arena) (*Instance, error) {
	k := sim.NewKernel()
	sys, err := cache.NewPrebuilt(k, art.Design, art.Opt.Policy, art.Opt.Mode, cache.Prebuilt{
		Topo: art.Topo, Alg: art.Table, Arena: ar, Prechecked: true,
	})
	if err != nil {
		return nil, err
	}
	// The CMP fabric attaches its controllers before any warm state or
	// core registers, mirroring the construction order the analytic cmp
	// runner used (its Cores=1 goldens pin the resulting event order).
	var fab *cmp.Fabric
	if art.Opt.Cores > 0 {
		if fab, err = cmp.Attach(sys, art.Opt.Cores); err != nil {
			return nil, err
		}
	}
	sys.WarmClone(art.WarmImg)
	var c *cpu.Core
	var cores []*cpu.Core
	if fab != nil {
		cores = make([]*cpu.Core, art.Opt.Cores)
		for i := range cores {
			cfg := art.CPU
			cfg.Seed = cpu.CoreSeed(art.Opt.Seed, i)
			cores[i] = cpu.New(k, fab.Port(i), art.Prof, art.CoreAccs[i], cfg)
		}
	} else {
		c = cpu.New(k, sys, art.Prof, art.Accs, art.CPU)
	}
	// Telemetry is wired after every working component so its sampling
	// observer registers with the highest component id and ticks last
	// within a cycle (see sim.Observer).
	tel := telemetry.New(art.Opt.Telemetry, sys.Topo)
	if tel != nil {
		sys.EnableTelemetry(tel)
	}
	return &Instance{Art: art, K: k, Sys: sys, C: c, Fab: fab, cores: cores, tel: tel}, nil
}

// start arms every core's first access.
func (in *Instance) start() {
	if in.Fab != nil {
		for _, c := range in.cores {
			c.Start()
		}
		return
	}
	in.C.Start()
}

// RunToCompletion drives the instance to quiescence and assembles the
// Result. Call it once.
func (in *Instance) RunToCompletion() (Result, error) {
	in.start()
	if _, idle := in.K.Run(1 << 40); !idle {
		return Result{}, in.wrapErr(fmt.Errorf("run did not complete within the cycle budget"))
	}
	return in.finishIdle()
}

// finishIdle collects the Result once the kernel has gone idle. It
// errors when an access stream did not complete.
func (in *Instance) finishIdle() (Result, error) {
	if in.Fab == nil {
		cr, err := in.C.Result()
		if err != nil {
			return Result{}, in.wrapErr(err)
		}
		return in.finish([]cpu.Result{cr})
	}
	rs := make([]cpu.Result, len(in.cores))
	for i, c := range in.cores {
		r, err := c.Result()
		if err != nil {
			return Result{}, in.wrapErr(fmt.Errorf("core %d: %w", i, err))
		}
		rs[i] = r
	}
	return in.finish(rs)
}

func (in *Instance) wrapErr(err error) error {
	return fmt.Errorf("core: %s/%v/%v/%s: %w",
		in.Art.Design.ID, in.Art.Opt.Policy, in.Art.Opt.Mode, in.Art.Opt.Benchmark, err)
}

// finish drains the system and assembles the Result from the cores'
// outcomes (one for the classic path). The scalar fields aggregate over
// rs — IPC and instructions sum, cycles take the slowest core — and the
// latency statistics are the shared cache's protocol-side view. A CMP
// run adds the fabric's quiescence check and the per-core rows from the
// ports' core-observed accumulators.
func (in *Instance) finish(rs []cpu.Result) (Result, error) {
	opt, d, sys := in.Art.Opt, in.Art.Design, in.Sys
	if err := sys.Drain(1 << 30); err != nil {
		return Result{}, err
	}
	// Drain checks the primary controller; the fabric's extra controllers
	// and ports need their own quiescence proof.
	if in.Fab != nil {
		if p := in.Fab.Pending(); p != 0 {
			return Result{}, fmt.Errorf("core: %d requests stuck across the CMP fabric after quiescence", p)
		}
	}
	in.tel.Finish(in.K.Now())

	bank, net, memShare := sys.Lat.Shares()
	netStats := sys.Net.Stats()
	memStats := sys.Memory.Stats()
	erep := energy.DefaultModel().Estimate(energy.Activity{
		FlitHops:     netStats.Router.FlitsRouted,
		BankAccesses: sys.BankAccessesBySize(),
		MemBlocks:    memStats.Reads + memStats.WriteBacks,
		Accesses:     uint64(opt.Accesses) * uint64(len(rs)),
	})
	res := Result{
		Options:      opt,
		Design:       d,
		PerfectIPC:   in.Art.Prof.PerfectIPC,
		AvgLatency:   sys.Lat.Avg(),
		AvgHit:       sys.Lat.AvgHit(),
		AvgMiss:      sys.Lat.AvgMiss(),
		AvgOccupancy: sys.Lat.AvgOccupancy(),
		HitRate:      sys.Lat.HitRate(),
		MRUHitShare:  sys.Lat.HitWayShare(0),
		BankShare:    bank,
		NetworkShare: net,
		MemShare:     memShare,
		BankAccesses: sys.BankAccesses(),
		Network:      netStats,
		Memory:       memStats,
		Latency:      sys.Lat.Clone(),
		Energy:       erep,
		Telemetry:    in.tel,
	}
	for i, cr := range rs {
		res.IPC += cr.IPC()
		res.Instructions += cr.Instructions
		if cr.Cycles > res.Cycles {
			res.Cycles = cr.Cycles
		}
		if in.Fab == nil {
			continue
		}
		p := in.Fab.Port(i)
		total := p.RemoteIssues + p.LocalIssues
		res.Cores = append(res.Cores, CoreResult{
			Core:         i,
			IPC:          cr.IPC(),
			AvgLatency:   p.Lat.Avg(),
			HitRate:      p.Lat.HitRate(),
			RemoteShare:  float64(p.RemoteIssues) / float64(total),
			Instructions: cr.Instructions,
			Cycles:       cr.Cycles,
		})
	}
	if sys.Dir != nil {
		rep := sys.Dir.Report()
		res.Directory = &rep
	}
	return res, nil
}
