// Package core is the top-level API of the nucanet reproduction: it
// assembles a networked L2 cache (Table 3 design + replacement policy +
// unicast/multicast mode), drives it with a Table 2 benchmark workload
// through the CPU model, and returns the measurements the paper reports.
//
// The experiment drivers in experiments.go regenerate every table and
// figure of the evaluation section; cmd/paperbench formats them.
package core

import (
	"sync"

	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/energy"
	"nucanet/internal/mem"
	"nucanet/internal/network"
	"nucanet/internal/stats"
	"nucanet/internal/telemetry"
)

// Options configures one simulation run.
type Options struct {
	// DesignID selects a Table 3 configuration ("A".."F").
	DesignID string
	// Design, when non-nil, overrides the DesignID lookup with an ad-hoc
	// configuration not in Table 3 (e.g. the power-gating sweep's
	// truncated columns).
	Design *config.Design
	Policy cache.Policy
	Mode   cache.Mode
	// Benchmark names a Table 2 profile.
	Benchmark string
	// Router, when non-empty, overrides the design's router
	// microarchitecture with a registered engine name ("vc-wormhole",
	// "bufferless", "ring-lite"). Empty keeps the design's own engine
	// (itself defaulting to the VC wormhole router).
	Router string
	// Accesses is the measured L2 access count (after warm-up).
	Accesses int
	Seed     uint64
	CPU      cpu.Config
	// Telemetry selects cycle-level probes (flit trace, heatmaps, time
	// series). The zero value disables them all at zero cost.
	Telemetry telemetry.Config
	// Cores switches the run to full-system CMP mode: N trace-driven
	// cores spread along the fabric's top row (see internal/cmp), each
	// replaying its own Accesses-long stream on a private tag range with
	// a seed derived by cpu.CoreSeed. 0 — the default — is the classic
	// single-core path, attached at the design's CoreX, bit-identical to
	// every pre-CMP golden. Cores >= 1 measures sharing contention on
	// the simulated fabric; Cores == 1 is the degenerate CMP (one core
	// at the row's midpoint) the analytic cmp layer used to model.
	Cores int
}

// DefaultOptions returns the baseline configuration: Design A, multicast
// Fast-LRU, gcc, 10k accesses.
func DefaultOptions() Options {
	return Options{
		DesignID:  "A",
		Policy:    cache.FastLRU,
		Mode:      cache.Multicast,
		Benchmark: "gcc",
		Accesses:  10000,
		Seed:      42,
		CPU:       cpu.DefaultConfig(),
	}
}

// Result is the outcome of one run.
type Result struct {
	Options Options
	Design  config.Design

	IPC          float64
	PerfectIPC   float64
	Instructions int64
	Cycles       int64

	AvgLatency   float64
	AvgHit       float64
	AvgMiss      float64
	AvgOccupancy float64 // issue -> replacement-chain completion
	HitRate      float64
	MRUHitShare  float64 // fraction of hits at the MRU bank

	BankShare, NetworkShare, MemShare float64 // Figure 7 split

	BankAccesses uint64
	Network      network.Stats
	Memory       mem.Stats

	// Latency is a snapshot of the run's full latency accumulator; use
	// Latency.Merge to combine runs of a sweep into one aggregate.
	Latency *stats.Latency

	// Energy is the activity-based energy estimate of the run (the
	// paper's stated future-work analysis; see internal/energy).
	Energy energy.Report

	// Telemetry holds the run's probe data when Options.Telemetry enabled
	// any probe; nil otherwise.
	Telemetry *telemetry.Collector

	// Cores holds the per-core outcomes of a CMP run (Options.Cores >=
	// 1); nil on the classic single-core path. The scalar fields above
	// aggregate: IPC and Instructions sum over the cores, Cycles is the
	// slowest core's finish, and the latency statistics keep the shared
	// cache's protocol-side view.
	Cores []CoreResult

	// Directory is the merged ownership report of a run under the
	// directory policy (per-owner occupancy and the cross-core eviction
	// matrix); nil under every other policy.
	Directory *cache.DirReport
}

// CoreResult is one CMP core's outcome. Latency and hit rate are the
// core-observed view (including trips to and from remote home
// controllers), unlike Result's shared protocol-side accumulator.
type CoreResult struct {
	Core         int
	IPC          float64
	AvgLatency   float64
	HitRate      float64
	RemoteShare  float64 // fraction of issues homed on another controller
	Instructions int64
	Cycles       int64
}

// Run executes one simulation to completion on the default Runtime.
// Each run owns its kernel, RNG streams, and stats, so concurrent Run
// calls on distinct Options never share mutable state (the property the
// parallel engine depends on; see engine.go and TestRunInvariance).
// Run is the composition of the batch-evaluation API
// in instance.go: Prepare the immutable artifacts, assemble an Instance,
// drive it to quiescence.
func Run(opt Options) (Result, error) { return std.Run(opt) }

// maxFreeArenas bounds a Runtime's free list of workers: building a
// Design A instance on a fresh arena allocates 6.3 MB, 4.2 MB of it bank
// frames, and more runs than this are rarely in flight at once.
const maxFreeArenas = 4

// Runtime owns what runs share across calls: the warm-state LRU (see
// warmFor), the free list of workers (a list rather than a sync.Pool,
// which drops its contents at every GC and made bytes per run a matter
// of timing) and the memo of gated catalogue designs (see
// resolveDesign). Its zero value is ready to use, from any number of
// goroutines; Run, Prepare, Validate, CanonicalKey and NewEngine use
// the package's default one. Runtimes share nothing.
type Runtime struct {
	mu      sync.Mutex
	warm    []*warmState // most recently used first, at most maxSharedWarm
	free    []*Worker    // reset, at most maxFreeArenas
	designs map[designKey]*resolvedDesign
}

// std is the default Runtime behind the package-level API.
var std Runtime

// Worker is the state one worker's runs recycle: the construction arena
// (see cmp.Arena) and the Instance built on it. A finished run's Result
// holds nothing carved from a worker, and a reset worker pins nothing of
// the run it carried.
type Worker struct {
	ar cmp.Arena
	in Instance
}

func (w *Worker) reset() {
	w.ar.Reset()
	w.in = Instance{cores: w.in.cores[:0]}
}

// Run is the package-level Run on rt.
func (rt *Runtime) Run(opt Options) (Result, error) {
	art, err := rt.prepare(opt, nil)
	if err != nil {
		return Result{}, err
	}
	return rt.runPooled(art)
}

// runPooled builds art's Instance on a recycled worker and drives it to
// completion. The worker goes back to the free list only when the run
// returns: one a panic unwound through may hold a half-built or
// half-run system, so it is dropped.
func (rt *Runtime) runPooled(art *Artifacts) (Result, error) {
	rt.mu.Lock()
	var w *Worker
	if n := len(rt.free); n > 0 {
		w, rt.free = rt.free[n-1], rt.free[:n-1]
	}
	rt.mu.Unlock()
	if w == nil {
		w = new(Worker)
	}
	in, err := NewInstance(art, w)
	var res Result
	if err == nil {
		res, err = in.RunToCompletion()
	}
	w.reset()
	rt.mu.Lock()
	if len(rt.free) < maxFreeArenas {
		rt.free = append(rt.free, w)
	}
	rt.mu.Unlock()
	return res, err
}
