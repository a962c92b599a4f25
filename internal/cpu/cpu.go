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
	Instructions int64
	Cycles       int64
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

// Core drives an L2 with the accesses it draws from a generator.
type Core struct {
	k   *sim.Kernel
	kid int
	cfg Config
	sys L2
	rng sim.RNG
	// done is c.onData bound once for the core's lifetime: passing the
	// method value per access would allocate a fresh closure each time.
	done func(*cache.Request, int64)
	// free holds the requests not in flight: Window of them, the MSHRs,
	// reused as each access's Done runs and kept by Renew.
	free []*cache.Request

	cpi  float64
	gen  trace.Generator
	n    int          // accesses to issue
	next trace.Access // access idx, drawn from gen once (see draw)

	idx         int // next access to issue
	outstanding int
	stalledFull bool
	blockedOn   *cache.Request
	frac        float64
	completed   int
	instrIssued int64
	endCycle    int64
}

// Renew arms c, a zero Core or one a run has used, to issue n accesses
// over sys drawn from gen, a generator for prof, as the run reaches them,
// and returns c. It keeps the bound completion callback and, once a run
// has returned them all, the requests, so a core recycled from run to
// run allocates nothing while its Window does not grow.
func (c *Core) Renew(k *sim.Kernel, sys L2, prof trace.Profile, gen trace.Generator, n int, cfg Config) *Core {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	done, free := c.done, c.free
	if len(free) < cfg.Window {
		reqs := make([]cache.Request, cfg.Window)
		free = make([]*cache.Request, cfg.Window)
		for i := range reqs {
			free[i] = &reqs[i]
		}
	}
	*c = Core{
		k: k, cfg: cfg, sys: sys, gen: gen, n: n,
		cpi: 1 / prof.PerfectIPC, done: done, free: free[:cfg.Window],
	}
	if c.done == nil {
		c.done = c.onData
	}
	c.rng.Seed(cfg.Seed ^ 0xc0de)
	c.kid = k.Register(c)
	return c
}

// Start draws and arms the first access; call once before running the
// kernel.
func (c *Core) Start() {
	if c.n == 0 {
		panic("cpu: empty access stream")
	}
	c.draw()
	c.k.WakeAt(c.k.Now()+c.gapCycles(c.next.Gap), c.kid)
}

// draw takes access idx from the generator into next, once per access:
// Start draws the first and each issue the one after it, before
// gapCycles — which carries state — converts its gap.
func (c *Core) draw() {
	if c.idx < c.n {
		c.next = c.gen.Next()
	}
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
	if c.idx >= c.n || c.blockedOn != nil {
		return
	}
	if c.outstanding >= c.cfg.Window {
		c.stalledFull = true
		return
	}
	a := c.next
	c.idx++
	c.draw()
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
	if c.idx >= c.n {
		return
	}
	c.k.WakeAt(now+c.gapCycles(c.next.Gap), c.kid)
}

// onData is the completion callback from the cache controller. The L2
// is done with req, so it goes back on the free list at once: an access
// issued below may reuse it.
func (c *Core) onData(req *cache.Request, now int64) {
	c.free = append(c.free, req)
	c.outstanding--
	c.completed++
	if c.completed == c.n {
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

// Result returns the outcome once the kernel has drained: drivers Start
// every core, run the shared kernel to idle, then collect each core's
// Result. It errors if the core has pending accesses.
func (c *Core) Result() (Result, error) {
	if c.completed != c.n {
		return Result{}, fmt.Errorf("cpu: only %d/%d accesses completed", c.completed, c.n)
	}
	return Result{Instructions: c.instrIssued, Cycles: c.endCycle}, nil
}
