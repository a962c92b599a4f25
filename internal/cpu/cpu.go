// Package cpu is the trace-driven core model that turns L2 access
// latencies into IPC, substituting for the paper's sim-alpha Alpha 21264.
//
// The core executes instructions at the benchmark's perfect-L2 IPC
// (Table 2) between L2 accesses, keeps at most Window accesses
// outstanding (an MSHR-style limit), and stalls on the fraction of reads
// whose consumers are immediately dependent (BlockingProb). Writes are
// buffered and never stall the core directly. Because every design is
// evaluated with the same core model, relative IPC — the paper's Figure 9
// metric — is preserved.
package cpu

import (
	"fmt"

	"nucanet/internal/cache"
	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

// Config sets the core parameters.
type Config struct {
	Window       int     // max outstanding L2 accesses (MSHRs)
	BlockingProb float64 // fraction of reads that stall the core until data
	Seed         uint64
}

// DefaultConfig returns the model used for all experiments. An Alpha
// 21264's ~80-entry window at these perfect-L2 IPCs (0.3-0.4) covers only
// ~25-30 cycles of load latency — far below any L2 access here — so most
// L2 reads eventually stall the pipeline; BlockingProb 0.6 reflects that
// while leaving some overlap for independent misses.
func DefaultConfig() Config {
	return Config{Window: 8, BlockingProb: 0.6, Seed: 1}
}

// Result summarizes one run.
type Result struct {
	Benchmark    string
	Instructions int64
	Cycles       int64
	Accesses     int64
	PerfectIPC   float64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// L2 is the cache interface the core drives: the single-core
// cache.System, or a per-core port of a CMP system. Submit issues a
// caller-owned request; the L2 lets go of it once its Done has run.
type L2 interface {
	Submit(r *cache.Request)
}

// Core drives an L2 with a fixed access list.
type Core struct {
	k   *sim.Kernel
	kid int
	cfg Config
	sys L2
	rng *sim.RNG
	// done is c.onData bound once: passing the method value per access
	// would allocate a fresh closure each time.
	done func(*cache.Request, int64)
	// free holds the requests not in flight: Window of them, the MSHRs,
	// allocated once and reused as each access's Done runs.
	free []*cache.Request

	prof trace.Profile
	cpi  float64
	accs []trace.Access

	idx         int // next access to issue
	outstanding int
	stalledFull bool
	blockedOn   *cache.Request
	frac        float64
	completed   int
	instrIssued int64
	endCycle    int64
}

// New prepares a core over sys that will replay accs (drawn from a
// generator for prof).
func New(k *sim.Kernel, sys L2, prof trace.Profile, accs []trace.Access, cfg Config) *Core {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	c := &Core{
		k: k, cfg: cfg, sys: sys, prof: prof, accs: accs,
		cpi: 1 / prof.PerfectIPC,
		rng: sim.NewRNG(cfg.Seed ^ 0xc0de),
	}
	c.done = c.onData
	reqs := make([]cache.Request, cfg.Window)
	c.free = make([]*cache.Request, cfg.Window)
	for i := range reqs {
		c.free[i] = &reqs[i]
	}
	c.kid = k.Register(c)
	return c
}

// Start arms the first access; call once before running the kernel.
func (c *Core) Start() {
	if len(c.accs) == 0 {
		panic("cpu: empty access list")
	}
	c.k.WakeAt(c.k.Now()+c.gapCycles(c.accs[0].Gap), c.kid)
}

// gapCycles converts an instruction gap to perfect-IPC execute cycles,
// carrying the fractional remainder for exactness over the run.
func (c *Core) gapCycles(gap int64) int64 {
	v := float64(gap)*c.cpi + c.frac
	n := int64(v)
	c.frac = v - float64(n)
	if n < 1 {
		n = 1
	}
	return n
}

// Tick attempts to issue the pending access.
func (c *Core) Tick(now int64) bool {
	c.tryIssue(now)
	return false
}

func (c *Core) tryIssue(now int64) {
	if c.idx >= len(c.accs) || c.blockedOn != nil {
		return
	}
	if c.outstanding >= c.cfg.Window {
		c.stalledFull = true
		return
	}
	a := c.accs[c.idx]
	c.idx++
	c.instrIssued += a.Gap
	c.outstanding++
	req := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	*req = cache.Request{Addr: a.Addr, Write: a.Write, Done: c.done}
	c.sys.Submit(req)
	if !a.Write && c.rng.Bool(c.cfg.BlockingProb) {
		// A dependent load: the core cannot run ahead.
		c.blockedOn = req
		return
	}
	c.scheduleNext(now)
}

func (c *Core) scheduleNext(now int64) {
	if c.idx >= len(c.accs) {
		return
	}
	c.k.WakeAt(now+c.gapCycles(c.accs[c.idx].Gap), c.kid)
}

// onData is the completion callback from the cache controller. The L2
// is done with req, so it goes back on the free list at once: an access
// issued below may reuse it.
func (c *Core) onData(req *cache.Request, now int64) {
	c.free = append(c.free, req)
	c.outstanding--
	c.completed++
	if c.completed == len(c.accs) {
		c.endCycle = now
	}
	if req == c.blockedOn {
		c.blockedOn = nil
		if c.stalledFull {
			c.stalledFull = false
			c.tryIssue(now)
		} else {
			c.scheduleNext(now)
		}
		return
	}
	if c.stalledFull {
		c.stalledFull = false
		c.tryIssue(now)
	}
}

// Run executes the whole access list to completion and returns the result.
func (c *Core) Run(maxCycles int64) (Result, error) {
	c.Start()
	if _, idle := c.k.Run(maxCycles); !idle {
		return Result{}, fmt.Errorf("cpu: run did not complete within %d cycles (%d/%d accesses)",
			maxCycles, c.completed, len(c.accs))
	}
	return c.Result()
}

// Result returns the outcome once the kernel has drained. Multi-core
// drivers Start several cores, run the shared kernel to idle, then
// collect each core's Result. It errors if the core has pending accesses.
func (c *Core) Result() (Result, error) {
	if c.completed != len(c.accs) {
		return Result{}, fmt.Errorf("cpu: only %d/%d accesses completed", c.completed, len(c.accs))
	}
	return Result{
		Benchmark:    c.prof.Name,
		Instructions: c.instrIssued,
		Cycles:       c.endCycle,
		Accesses:     int64(len(c.accs)),
		PerfectIPC:   c.prof.PerfectIPC,
	}, nil
}
