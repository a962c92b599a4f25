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
// gated design (process-wide for a catalogue design, per PrepCache for
// an ad-hoc one) and the same Warm/WarmImg through the process-wide warm
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
// designs are gated once per process, see designMemo) per canonical
// encoding. It also pins every warm state the batch uses, so a batch
// builds each at most once however many the process-wide cache
// (sharedWarm) retains. A nil *PrepCache shares only that process-wide
// warm state. The maps are unguarded: Prepare with one PrepCache from
// one goroutine at a time (Engine.RunAll prepares its whole batch before
// fanning out); what Prepare returns is immutable and may be read from
// any number.
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

// maxSharedWarm bounds the process-wide warm cache. A state is a
// 2.5 MB table plus a bank image of about 4.5 MB, and a process rarely
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

// warmFor resolves the warm table and image of a resolved design: the
// batch's pinned state when pc has one, the process-wide state otherwise.
func (pc *PrepCache) warmFor(rd *resolvedDesign, prof trace.Profile, cores int) *warmState {
	d := &rd.d
	am := d.AddrMap()
	key := warmKey{am.Columns, am.Sets, d.Ways(), cores, rd.stack}
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
func Prepare(opt Options, pc *PrepCache) (*Artifacts, error) {
	rd, prof, err := checkOptions(opt, pc)
	if err != nil {
		return nil, err
	}
	ws := pc.warmFor(rd, prof, opt.Cores)
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

// NewInstance assembles the mutable simulation state over art. ar is the
// arena the runs of one worker recycle: construction memory, kernel,
// free lists, and each core with the access stream it draws from (see
// cmp.Arena); it must not be shared across goroutines. Nil builds the
// instance from a fresh arena.
func NewInstance(art *Artifacts, ar *cmp.Arena) (*Instance, error) {
	if ar == nil {
		ar = new(cmp.Arena)
	}
	ca := ar.CacheArena()
	k := ca.RouterArena().Kernel()
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
	cores := make([]*cpu.Core, max(art.Opt.Cores, 1))
	for i := range cores {
		var l2 cpu.L2 = sys
		if fab != nil {
			l2 = fab.Port(i)
		}
		cores[i] = ar.Core(i, k, l2, art.Prof, sys.AM, art.Opt.Accesses, art.CPU)
	}
	// Telemetry is wired after every working component so its sampling
	// observer registers with the highest component id and ticks last
	// within a cycle (see sim.Observer).
	tel := telemetry.New(art.Opt.Telemetry, sys.Topo)
	if tel != nil {
		sys.EnableTelemetry(tel)
	}
	return &Instance{Art: art, K: k, Sys: sys, Fab: fab, cores: cores, tel: tel}, nil
}

// RunToCompletion drives the instance to quiescence and assembles the
// Result. Call it once.
func (in *Instance) RunToCompletion() (Result, error) {
	for _, c := range in.cores {
		c.Start()
	}
	if _, idle := in.K.Run(1 << 40); !idle {
		return Result{}, in.wrapErr(fmt.Errorf("run did not complete within the cycle budget"))
	}
	return in.finishIdle()
}

// finishIdle collects the Result once the kernel has gone idle. It
// errors when an access stream did not complete.
func (in *Instance) finishIdle() (Result, error) {
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
