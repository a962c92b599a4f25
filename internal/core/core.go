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
	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/energy"
	"nucanet/internal/mem"
	"nucanet/internal/network"
	"nucanet/internal/router"
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

// Run executes one simulation to completion. Each run owns its kernel,
// RNG streams, and stats, so concurrent Run calls on distinct Options
// never share mutable state (the property the parallel engine depends
// on; see engine.go and the determinism regression test). Run is the
// composition of the batch-evaluation API in instance.go: Prepare the
// immutable artifacts, assemble an Instance, drive it to quiescence.
func Run(opt Options) (Result, error) {
	art, err := Prepare(opt, nil)
	if err != nil {
		return Result{}, err
	}
	return runPooled(art)
}

// maxFreeArenas bounds the arena free list: a Design A arena is 3-4 MB,
// and more runs than this are rarely in flight at once.
const maxFreeArenas = 4

// arenas recycles construction memory from run to run: a finished run's
// Result holds nothing carved from its arena, so the next run on any
// goroutine reuses the same memory. A free list rather than a sync.Pool,
// which drops its contents at every GC and made bytes per run a matter
// of timing.
var arenas struct {
	sync.Mutex
	free []*router.Arena // reset, at most maxFreeArenas
}

// runPooled builds art's Instance from a recycled arena and drives it to
// completion.
func runPooled(art *Artifacts) (Result, error) {
	arenas.Lock()
	var ar *router.Arena
	if n := len(arenas.free); n > 0 {
		ar, arenas.free = arenas.free[n-1], arenas.free[:n-1]
	} else {
		ar = new(router.Arena)
	}
	arenas.Unlock()
	defer func() {
		ar.Reset()
		arenas.Lock()
		if len(arenas.free) < maxFreeArenas {
			arenas.free = append(arenas.free, ar)
		}
		arenas.Unlock()
	}()
	in, err := NewInstance(art, ar)
	if err != nil {
		return Result{}, err
	}
	return in.RunToCompletion()
}
