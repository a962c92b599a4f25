package core

import (
	"fmt"
	"runtime"
	"time"

	"nucanet/internal/network"
	"nucanet/internal/sim"
	"nucanet/internal/stats"
)

// Engine is the one sweep executor: it prepares a batch of independent
// runs through one shared PrepCache, then fans the lanes out to a
// bounded pool of worker goroutines. Lanes share only immutable
// artifacts — each owns its kernel, RNG streams, and stats (see Run) —
// and results land in submission order regardless of completion order,
// so every sweep is bit-identical to a sequential loop of Run calls at
// any worker count (pinned by TestEngineBitIdentity and the determinism
// regression tests).
type Engine struct {
	workers int
	rt      *Runtime
}

// NewEngine returns an engine with the given parallelism. workers <= 0
// selects runtime.GOMAXPROCS(0); workers == 1 is the sequential
// reference execution.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, rt: &std}
}

// SweepReport accounts one sweep: per-run execution times in submission
// order, the summed sequential work (batch preparation plus every run),
// and the sweep's wall time from the first Prepare to the last result.
// Work/Wall is the realized speedup.
type SweepReport struct {
	Runs    int
	Workers int
	Wall    time.Duration
	Work    time.Duration // batch preparation + sum of PerRun
	PerRun  []time.Duration
}

// Speedup returns summed-work over wall-clock — 1.0 for a sequential
// sweep, approaching Workers for a perfectly parallel one.
func (r SweepReport) Speedup() float64 {
	if r.Wall <= 0 {
		return 1
	}
	return float64(r.Work) / float64(r.Wall)
}

// String is the sweep's accounting line, as the CLIs print it: total
// wall time, summed per-run work, and the realized parallel speedup.
func (r SweepReport) String() string {
	return fmt.Sprintf("[%d runs, j=%d: wall %.1fs, work %.1fs, speedup %.1fx]",
		r.Runs, r.Workers, r.Wall.Seconds(), r.Work.Seconds(), r.Speedup())
}

// RunAll executes every Options and returns the results in submission
// order. The whole batch is prepared first, on this goroutine, so lanes
// of one design share its topology, routing table and static
// verification; each lane then builds its Instance from a recycled
// arena and a clone of the shared warm image, and its cores draw their
// access streams from that arena's generators as the lane runs, as in
// Run. A preparation error (lowest index first) fails the batch before
// any lane runs; otherwise the lowest-index lane's error is returned,
// exactly as a sequential loop would.
func (e *Engine) RunAll(opts []Options) ([]Result, SweepReport, error) {
	rep := SweepReport{Runs: len(opts), Workers: e.workers}
	start := time.Now()
	pc := NewPrepCache()
	arts := make([]*Artifacts, len(opts))
	for i, opt := range opts {
		art, err := e.rt.prepare(opt, pc)
		if err != nil {
			return nil, rep, err
		}
		arts[i] = art
	}
	rep.Work = time.Since(start)

	out, durs, _, err := sim.TimedParMap(e.workers, len(opts), func(i int) (Result, error) {
		return e.rt.runPooled(arts[i])
	})
	rep.Wall = time.Since(start)
	if err != nil {
		return nil, rep, err
	}
	rep.PerRun = durs
	for _, d := range durs {
		rep.Work += d
	}
	return out, rep, nil
}

// Aggregate merges the statistics of many runs into one rollup, using
// the Merge methods of stats.Latency and network.Stats. Adding results
// in submission order makes aggregates reproducible; the Merge methods
// are additionally order-invariant, so any combination tree yields the
// same aggregate (pinned by TestAggregateMergeOrderInvariance).
type Aggregate struct {
	Runs     int
	Accesses int64 // simulated accesses, every core's counted
	Latency  stats.Latency
	Network  network.Stats
	MemReads uint64
	MemWB    uint64
}

// Add folds one run's statistics into the aggregate. A CMP run counts
// the accesses of every core.
func (a *Aggregate) Add(r Result) {
	a.Runs++
	a.Accesses += int64(r.Options.Accesses) * int64(max(r.Options.Cores, 1))
	if r.Latency != nil {
		a.Latency.Merge(r.Latency)
	}
	a.Network.Merge(r.Network)
	a.MemReads += r.Memory.Reads
	a.MemWB += r.Memory.WriteBacks
}

// AggregateOf rolls up a result slice in submission order.
func AggregateOf(rs []Result) Aggregate {
	var a Aggregate
	for _, r := range rs {
		a.Add(r)
	}
	return a
}
