package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"nucanet/internal/core"
)

// opRecord is one measured operation.
type opRecord struct {
	key      uint64  // what names the op's output: its index, or (serve_mixed) its request seed
	ms       float64 // wall time
	accesses int     // simulated L2 accesses the op answered
	fp       uint64  // fingerprint of its output
	ipc      float64 // simulated
	latency  float64
	hitRate  float64
	cold     bool // serve_mixed: a never-seen key
	failed   bool
}

// pass is one closed-loop run over a prefix of a workload's op list.
type pass struct {
	ops     []opRecord // in op-list order (serve_mixed: client 0's, then client 1's)
	client0 int        // serve_mixed: how many of ops are client 0's
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
	notes   []string // what went wrong, for the operator
}

func (p *pass) fail(format string, args ...any) {
	if len(p.notes) < 20 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

func (p *pass) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.failed {
			n++
		}
	}
	return n
}

func (p *pass) durations() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = o.ms
	}
	return out
}

// memMark brackets a pass with the process's allocation and GC counters.
type memMark struct{ m runtime.MemStats }

func markMem() *memMark {
	mm := &memMark{}
	runtime.ReadMemStats(&mm.m)
	return mm
}

func (mm *memMark) close(p *pass) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	p.mallocs = now.Mallocs - mm.m.Mallocs
	p.bytes = now.TotalAlloc - mm.m.TotalAlloc
	p.gcs = now.NumGC - mm.m.NumGC
	p.gcPause = time.Duration(now.PauseTotalNs - mm.m.PauseTotalNs)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// fingerprint folds the fields of a Result that any model change moves.
func fingerprint(r core.Result) uint64 {
	h := fnv.New64a()
	for _, v := range []uint64{
		uint64(r.Cycles), uint64(r.Instructions),
		math.Float64bits(r.IPC), math.Float64bits(r.HitRate),
		r.Network.Router.FlitsRouted, r.BankAccesses,
		r.Memory.Reads, r.Memory.WriteBacks,
	} {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// answered is the number of simulated L2 accesses a run of o answers.
func answered(o core.Options) int { return o.Accesses * max(o.Cores, 1) }

// checkResult is the per-op sanity check every direct op gets, whatever
// the seed: the run completed its whole access stream and its statistics
// are in range.
func checkResult(o core.Options, r core.Result, err error) error {
	switch {
	case err != nil:
		return err
	case r.Cycles <= 0 || r.Instructions <= 0 || !(r.IPC > 0):
		return fmt.Errorf("empty result: cycles=%d instructions=%d ipc=%v", r.Cycles, r.Instructions, r.IPC)
	case r.HitRate < 0 || r.HitRate > 1 || !(r.AvgLatency > 0):
		return fmt.Errorf("statistics out of range: hit rate %v, latency %v", r.HitRate, r.AvgLatency)
	case r.Latency == nil || r.Latency.Count != int64(answered(o)) || r.Latency.Hits+r.Latency.Misses != r.Latency.Count:
		return fmt.Errorf("run answered a different number of accesses than the %d asked for", answered(o))
	case len(r.Cores) != o.Cores:
		return fmt.Errorf("result has %d cores, want %d", len(r.Cores), o.Cores)
	}
	return nil
}

func directRecord(o core.Options, r core.Result, err error, d time.Duration, p *pass, i int) opRecord {
	rec := opRecord{key: uint64(i), ms: ms(d), accesses: answered(o)}
	if cerr := checkResult(o, r, err); cerr != nil {
		rec.failed, rec.accesses = true, 0
		p.fail("op %d: %v", i, cerr)
		return rec
	}
	rec.fp, rec.ipc, rec.latency, rec.hitRate = fingerprint(r), r.IPC, r.AvgLatency, r.HitRate
	return rec
}

// warmupDirect is a direct workload's set-up: the untimed ops that finish
// lazy initialisation and size the heap before anything is measured.
func warmupDirect(w workload, seed uint64, ops int) error {
	for j := 0; j < ops; j++ {
		o := w.directOp(seed, warmupBase+j)
		r, err := core.Run(o)
		if err := checkResult(o, r, err); err != nil {
			return fmt.Errorf("warm-up op %d: %w", j, err)
		}
	}
	return nil
}

// timedDirect runs ops 0,1,2,... through core.Run, one caller, until both
// budget has passed and minOps are done, or maxOps are done.
func timedDirect(w workload, seed uint64, budget time.Duration, minOps, maxOps int) *pass {
	p := &pass{}
	runtime.GC()
	mm := markMem()
	start := time.Now()
	for i := 0; i < maxOps; i++ {
		if i >= minOps && time.Since(start) >= budget {
			break
		}
		o := w.directOp(seed, i)
		t0 := time.Now()
		r, err := core.Run(o)
		p.ops = append(p.ops, directRecord(o, r, err, time.Since(t0), p, i))
	}
	p.wall = time.Since(start)
	mm.close(p)
	return p
}

// tracedOp runs one op decomposed into the three calls core.Run is made of,
// each under a span, and returns what core.Run would have returned plus the
// artifacts the lower layers' probes re-use.
func tracedOp(rec *recorder, op int, o core.Options) (res core.Result, art *core.Artifacts, err error) {
	var in *core.Instance
	var m [4]uint64
	var prep, build, sim time.Duration
	total := rec.do(op, "", "core.Run", func() {
		m[0] = mallocs()
		prep = rec.do(op, "core.Run", "core.Prepare", func() { art, err = core.Prepare(o, nil) })
		m[1] = mallocs()
		if err != nil {
			return
		}
		build = rec.do(op, "core.Run", "core.NewInstance", func() { in, err = core.NewInstance(art, nil) })
		m[2] = mallocs()
		if err != nil {
			return
		}
		sim = rec.do(op, "core.Run", "core.RunToCompletion", func() { res, err = in.RunToCompletion() })
		m[3] = mallocs()
	})
	if err != nil {
		return res, art, err
	}
	rec.count("core.prepare_share", float64(prep)/float64(total))
	rec.count("core.build_share", float64(build)/float64(total))
	rec.count("core.simulate_share", float64(sim)/float64(total))
	rec.count("core.prepare_allocs", float64(m[1]-m[0]))
	rec.count("core.build_allocs", float64(m[2]-m[1]))
	rec.count("core.simulate_allocs", float64(m[3]-m[2]))
	countResult(rec, o, res, sim)
	return res, art, nil
}

// countResult records the simulated per-layer counts of one run, and the
// simulate phase's host time per unit of simulated work.
func countResult(rec *recorder, o core.Options, r core.Result, sim time.Duration) {
	n := float64(answered(o))
	rs := r.Network.Router
	rec.count("core.simulate_ns_per_access", float64(sim)/n)
	rec.count("core.simulate_ns_per_flit_hop", float64(sim)/float64(rs.FlitsRouted))
	rec.count("core.simulate_ns_per_sim_cycle", float64(sim)/float64(r.Cycles))
	rec.count("cache.mru_hit_share", r.MRUHitShare)
	rec.count("cache.avg_hit_cycles", r.AvgHit)
	rec.count("cache.avg_miss_cycles", r.AvgMiss)
	rec.count("cache.avg_occupancy_cycles", r.AvgOccupancy)
	if r.Directory != nil {
		rec.count("cache.dir_cross_drops", float64(r.Directory.CrossDrops))
	}
	rec.count("bank.accesses_per_access", float64(r.BankAccesses)/n)
	rec.count("mem.reads_per_kaccess", 1000*float64(r.Memory.Reads)/n)
	rec.count("mem.writebacks_per_kaccess", 1000*float64(r.Memory.WriteBacks)/n)
	rec.count("energy.nj_per_access", r.Energy.PerAccessNJ())
	rec.count("network.packets_per_access", float64(r.Network.PacketsInjected)/n)
	rec.count("router.flit_hops_per_access", float64(rs.FlitsRouted)/n)
	rec.count("router.replicas_per_access", float64(rs.ReplicasSpawned)/n)
	rec.count("router.credit_stalls_per_kaccess", 1000*float64(rs.CreditStalls)/n)
	rec.count("router.replica_blocked_per_kaccess", 1000*float64(rs.ReplicaBlocked)/n)
	rec.count("sim.cycles_per_op", float64(r.Cycles))
	rec.count("cpu.instructions_per_op", float64(r.Instructions))
	if len(r.Cores) > 0 {
		lo, hi, remote := math.Inf(1), math.Inf(-1), 0.0
		for _, c := range r.Cores {
			lo, hi, remote = min(lo, c.IPC), max(hi, c.IPC), remote+c.RemoteShare
		}
		rec.count("cmp.core_ipc_min", lo)
		rec.count("cmp.core_ipc_max", hi)
		rec.count("cmp.remote_share", remote/float64(len(r.Cores)))
	}
}

// tracedDirect is the traced pass over ops 0..n-1: each op decomposed under
// spans, then the lower layers' exported functions re-executed standalone on
// the first probeOps ops' artifacts.
func tracedDirect(w workload, seed uint64, n, probeOps int, rec *recorder) *pass {
	p := &pass{}
	mm := markMem()
	start := time.Now()
	for i := 0; i < n; i++ {
		o := w.directOp(seed, i)
		t0 := time.Now()
		r, art, err := tracedOp(rec, i, o)
		p.ops = append(p.ops, directRecord(o, r, err, time.Since(t0), p, i))
		if err == nil && i < probeOps {
			if err := layerProbes(rec, i, art); err != nil {
				p.ops[i].failed = true
				p.fail("op %d: layer probes: %v", i, err)
			}
		}
	}
	p.wall = time.Since(start)
	mm.close(p)
	return p
}
