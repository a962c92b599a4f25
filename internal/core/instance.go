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
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// This file splits Run into the two halves batch evaluation needs:
// Prepare produces the run's immutable artifacts (resolved design,
// topology, routing table, warm-state table and image) and NewInstance
// assembles the mutable simulation state (kernel, cache system, cores
// and the access streams they draw from) over them. Run is Prepare +
// NewInstance + run-to-idle, preserving the pre-split construction
// sequence exactly — the 48 regression goldens and TestEngineBitIdentity
// are the proof.
// Engine.RunAll shares one PrepCache across a batch and builds every
// lane's Instance over the shared Artifacts.

// Artifacts is everything about a run that is immutable once prepared.
// All reference fields are shared read-only: many Instances — on one
// goroutine or several — may be built over the same Artifacts, and
// Artifacts of different runs may alias the same Topo/Table through the
// gated design (per Runtime for a catalogue design, per PrepCache for an
// ad-hoc one) and the same Warm/WarmImg through the Runtime's warm
// state. The access streams are not artifacts: each core draws its own
// while the run executes (see NewInstance).
type Artifacts struct {
	Opt    Options       // original options, recorded in Result.Options
	Design config.Design // resolved, router-normalized, validated
	Prof   trace.Profile
	Topo   *topology.Topology
	Table  *routing.Table
	// Warm is the WarmBlocks table for the design's ways; in a CMP run
	// (Options.Cores >= 1) the cores' interleaved table (cmp.MergeWarm).
	Warm [][]uint64
	CPU  cpu.Config // normalized core model config

	// WarmImg is the post-warm-up bank state built from Warm, shared per
	// (bank stack, Warm); NewInstance clones it. Every Prepare sets it.
	WarmImg *cache.WarmImage
}

// PrepCache shares Prepare's expensive immutable artifacts across the
// runs of a batch: the gated ad-hoc designs (Options.Design; catalogue
// designs are gated once per Runtime) per canonical encoding. It also
// pins every warm state the batch uses, so a batch builds each at most
// once however many the Runtime retains. A nil *PrepCache shares only
// the Runtime's warm state. The maps are unguarded: Prepare with one
// PrepCache from one goroutine at a time (Engine.RunAll prepares its
// whole batch before fanning out); what Prepare returns is immutable and
// may be read from any number.
type PrepCache struct {
	designs map[string]*resolvedDesign
	warms   map[warmKey]*warmState
}

// NewPrepCache returns an empty artifact cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{
		designs: map[string]*resolvedDesign{},
		warms:   map[warmKey]*warmState{},
	}
}

// warmKey identifies a warm L2 state. The generator's warm table is a
// function of the address geometry alone — no seed, no benchmark (see
// trace.Synthetic.WarmBlocks) — cores says how many private tag ranges
// interleave in it, and the bank-stack string (stackKey) how its ways
// split into banks. Designs differing only in placement, router or
// workload share one state.
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

// maxSharedWarm bounds a Runtime's warm-state LRU. A state is a 2.5 MB
// table plus a bank image of about 4.5 MB, and a process rarely
// alternates between more than a few (bank stack, core count) pairs.
const maxSharedWarm = 4

// warmFor resolves the warm table and image of a resolved design: the
// batch's pinned state when pc has one, rt's otherwise, inserted in
// place of rt's least recently used when absent. rt's lock guards the
// list only; a state is built outside it, under the state's own once,
// so distinct keys warm concurrently.
func (rt *Runtime) warmFor(pc *PrepCache, rd *resolvedDesign, prof trace.Profile, cores int) *warmState {
	d := &rd.d
	am := d.AddrMap()
	key := warmKey{am.Columns, am.Sets, d.Ways(), cores, rd.stack}
	if pc != nil {
		if ws, ok := pc.warms[key]; ok {
			return ws
		}
	}
	rt.mu.Lock()
	i := slices.IndexFunc(rt.warm, func(ws *warmState) bool { return ws.key == key })
	if i < 0 {
		if len(rt.warm) < maxSharedWarm {
			rt.warm = append(rt.warm, nil)
		}
		i = len(rt.warm) - 1
		rt.warm[i] = &warmState{key: key}
	}
	ws := rt.warm[i]
	copy(rt.warm[1:i+1], rt.warm[:i])
	rt.warm[0] = ws
	rt.mu.Unlock()
	ws.once.Do(func() {
		ws.table = trace.NewSynthetic(prof, am, 0).WarmBlocks(d.Ways())
		if cores > 0 {
			ws.table = cmp.MergeWarm(am, d.Ways(), ws.table, cores)
		}
		ws.img = cache.BuildWarmImage(*d, ws.table)
	})
	if pc != nil {
		pc.warms[key] = ws
	}
	return ws
}

// Prepare resolves and validates opt into the run's immutable artifacts:
// checkOptions, the same gate Validate and CanonicalKey apply, hands over
// the design's checked topology and routing table.
func Prepare(opt Options, pc *PrepCache) (*Artifacts, error) { return std.prepare(opt, pc) }

func (rt *Runtime) prepare(opt Options, pc *PrepCache) (*Artifacts, error) {
	rd, prof, err := rt.checkOptions(opt, pc)
	if err != nil {
		return nil, err
	}
	ws := rt.warmFor(pc, rd, prof, opt.Cores)
	return &Artifacts{
		Opt: opt, Design: rd.design(), Prof: prof,
		Topo: rd.topo, Table: rd.tb,
		Warm: ws.table, WarmImg: ws.img,
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
	// Fab is the CMP attachment over Sys (Options.Cores >= 1); nil for
	// the classic single core.
	Fab   *cmp.Fabric
	cores []*cpu.Core // one per port, or the classic core alone
	tel   *telemetry.Collector
}

// NewInstance assembles the mutable simulation state over art. w is the
// worker whose arena supplies construction memory, kernel, free lists
// and each core with the access stream it draws from (see cmp.Arena),
// and which holds the Instance itself; it must not be shared across
// goroutines, and the Instance lives until w is reset. Nil builds the
// instance on a fresh worker. Once w has carried a run of the same
// shape, NewInstance allocates nothing unless telemetry is on.
func NewInstance(art *Artifacts, w *Worker) (*Instance, error) {
	if w == nil {
		w = new(Worker)
	}
	ar, in := &w.ar, &w.in
	ca := ar.CacheArena()
	k := ca.Kernel()
	sys, err := cache.NewPrebuilt(k, art.Design, art.Opt.Policy, art.Opt.Mode, cache.Prebuilt{
		Topo: art.Topo, Alg: art.Table, Arena: ca, Prechecked: true,
	})
	if err != nil {
		return nil, err
	}
	// The CMP fabric attaches its controllers before any warm state or
	// core registers, mirroring the construction order the analytic cmp
	// runner used (its Cores=1 goldens pin the resulting event order).
	var fab *cmp.Fabric
	if art.Opt.Cores > 0 {
		if fab, err = cmp.AttachIn(sys, art.Opt.Cores, ar); err != nil {
			return nil, err
		}
	}
	sys.WarmClone(art.WarmImg)
	*in = Instance{Art: art, K: k, Sys: sys, Fab: fab, cores: in.cores[:0]}
	for i := range max(art.Opt.Cores, 1) {
		var l2 cpu.L2 = sys
		if fab != nil {
			l2 = fab.Port(i)
		}
		in.cores = append(in.cores, ar.Core(i, k, l2, art.Prof, sys.AM, art.Opt.Accesses, art.CPU))
	}
	// Telemetry is wired after every working component so its sampling
	// observer registers with the highest component id and ticks last
	// within a cycle (see sim.Observer).
	if in.tel = telemetry.New(art.Opt.Telemetry, sys.Topo); in.tel != nil {
		sys.EnableTelemetry(in.tel)
	}
	return in, nil
}

// runBudget is the cycle budget of every run: far past the length of any
// run that quiesces, so only a protocol that never goes idle spends it.
const runBudget = 1 << 40

// RunToCompletion starts the cores, drives the instance through the
// system's Drain — the one quiescence proof, covering every controller
// of a CMP fabric too — and assembles the Result. Call it once.
func (in *Instance) RunToCompletion() (Result, error) {
	for _, c := range in.cores {
		c.Start()
	}
	if err := in.Sys.Drain(runBudget); err != nil {
		return Result{}, in.wrapErr(err)
	}
	if in.Fab != nil {
		if p := in.Fab.Pending(); p != 0 {
			return Result{}, in.wrapErr(fmt.Errorf("%d accesses stuck at the CMP ports after quiescence", p))
		}
	}
	rs := make([]cpu.Result, len(in.cores))
	for i, c := range in.cores {
		r, err := c.Result()
		if err != nil {
			if in.Fab != nil {
				err = fmt.Errorf("core %d: %w", i, err)
			}
			return Result{}, in.wrapErr(err)
		}
		rs[i] = r
	}
	return in.finish(rs), nil
}

func (in *Instance) wrapErr(err error) error {
	return fmt.Errorf("core: %s/%v/%v/%s: %w",
		in.Art.Design.ID, in.Art.Opt.Policy, in.Art.Opt.Mode, in.Art.Opt.Benchmark, err)
}

// finish assembles the Result of a drained run from the cores' outcomes
// (one for the classic path). The scalar fields aggregate over rs — IPC
// and instructions sum, cycles take the slowest core — and the latency
// statistics are the shared cache's protocol-side view. A CMP run adds
// the per-core rows from the ports' core-observed accumulators.
func (in *Instance) finish(rs []cpu.Result) Result {
	opt, d, sys := in.Art.Opt, in.Art.Design, in.Sys
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
	if in.Fab != nil {
		res.Cores = make([]CoreResult, 0, len(rs))
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
	return res
}
