package core

import (
	"io"
	"slices"

	"nucanet/internal/area"
	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/telemetry"
	"nucanet/internal/trace"
)

// ExpConfig bounds the experiment size and its parallelism.
type ExpConfig struct {
	Accesses int
	Seed     uint64
	// Workers is the sweep parallelism (the -j flag): 0 runs one worker
	// per core, 1 forces the sequential reference execution. Runs are
	// independent and results are combined in submission order, so every
	// value of Workers produces byte-identical experiment output (pinned
	// by the determinism regression test).
	Workers int
	// PolicyName and ModeName override the replacement scheme of the
	// single-scheme experiments (Fig9, energy, power gating, telemetry);
	// empty keeps each experiment's paper configuration (multicast
	// Fast-LRU). Names resolve through the cache registry, so a policy
	// added with cache.RegisterPolicy works here — and on the CLIs — with
	// no further plumbing. Fixed-scheme reproductions (Fig7's unicast-LRU
	// baseline, Fig8's five-scheme comparison, the headline claims)
	// ignore the override by design.
	PolicyName string
	ModeName   string
	// RouterName overrides the router microarchitecture of every run in
	// an experiment (the -router flag); empty keeps each design's engine.
	// Names resolve through the router registry, like PolicyName through
	// the cache registry.
	RouterName string
	// Bench selects the benchmark of the single-benchmark experiments
	// (energy, power, pareto, telemetry, placement); empty keeps the
	// paper's gcc. The all-benchmark sweeps (f7-f9, headline) ignore it.
	Bench string
	// Telemetry configures the probes of the telemetry experiment; the
	// zero value selects its default probe set. Other experiments ignore
	// it.
	Telemetry telemetry.Config
	// Cores runs every simulation with N trace-driven cores on the CMP
	// fabric (the -cores flag); 0 keeps the classic single-core path.
	// Experiments over designs that cannot host cores (the radial halos)
	// reject the combination. The cmp experiment ignores it: sweeping
	// core counts is the experiment.
	Cores int
}

// bench resolves the single-benchmark experiments' benchmark.
func (cfg ExpConfig) bench() string {
	if cfg.Bench == "" {
		return "gcc"
	}
	return cfg.Bench
}

// DefaultExpConfig keeps the full figure sweeps (paperbench -exp all) to
// about 25 s wall at -j 2 on a 2-vCPU Xeon @ 2.10 GHz.
func DefaultExpConfig() ExpConfig { return ExpConfig{Accesses: 8000, Seed: 42} }

// scheme resolves the configured override against an experiment's paper
// defaults, erroring on names no registered policy or mode answers to.
func (cfg ExpConfig) scheme(p cache.Policy, m cache.Mode) (cache.Policy, cache.Mode, error) {
	var err error
	if cfg.PolicyName != "" {
		if p, err = cache.PolicyByName(cfg.PolicyName); err != nil {
			return p, m, err
		}
	}
	if cfg.ModeName != "" {
		if m, err = cache.ParseMode(cfg.ModeName); err != nil {
			return p, m, err
		}
	}
	return p, m, nil
}

// run builds the Options of cell c on bench.
func (cfg ExpConfig) run(c cell, bench string) Options {
	return Options{
		DesignID: c.design, Policy: c.policy, Mode: c.mode, Router: cfg.RouterName,
		Benchmark: bench, Accesses: cfg.Accesses, Seed: cfg.Seed,
		Cores: cfg.Cores,
	}
}

// sweep fans the job list out on the engine configured by cfg.
func (cfg ExpConfig) sweep(opts []Options) ([]Result, SweepReport, error) {
	return NewEngine(cfg.Workers).RunAll(opts)
}

// SweepRows is the Rows of every sweep experiment: the runs in job-list
// order plus the experiment's table renderer. Each Result carries its own
// Options and resolved Design, so a caller reading Runs (tests, the -trace
// export) needs no per-figure cell type.
type SweepRows struct {
	Runs []Result

	cfg    ExpConfig
	render func(w io.Writer, cfg ExpConfig, runs []Result)
}

// Render writes the experiment's table.
func (s SweepRows) Render(w io.Writer) { s.render(w, s.cfg, s.Runs) }

// sweepExperiment is the one driver under the sweep experiments: build
// the job list, fan it out on the engine once, and hand the runs — in
// submission order — to the experiment's renderer.
func sweepExperiment(jobs func(ExpConfig) ([]Options, error), render func(io.Writer, ExpConfig, []Result)) func(ExpConfig) (Rows, SweepReport, error) {
	return func(cfg ExpConfig) (Rows, SweepReport, error) {
		opts, err := jobs(cfg)
		if err != nil {
			return nil, SweepReport{}, err
		}
		runs, rep, err := cfg.sweep(opts)
		if err != nil {
			return nil, rep, err
		}
		return SweepRows{Runs: runs, cfg: cfg, render: render}, rep, nil
	}
}

// cell is one design under one scheme (a replacement policy and a
// request mode): a column of a figure's grid.
type cell struct {
	design string
	policy cache.Policy
	mode   cache.Mode
}

// scheme names c's scheme as the tables print it, e.g. "multicast+fastLRU".
func (c cell) scheme() string { return c.mode.String() + "+" + c.policy.String() }

var (
	meshPromo = cell{"A", cache.Promotion, cache.Multicast}
	meshFast  = cell{"A", cache.FastLRU, cache.Multicast}
	haloFast  = cell{"F", cache.FastLRU, cache.Multicast}
	meshLRU   = cell{"A", cache.LRU, cache.Unicast}
	meshUFast = cell{"A", cache.FastLRU, cache.Unicast}
	// fig8Cells are the five bars of Figure 8, in the paper's order.
	fig8Cells = []cell{{"A", cache.Promotion, cache.Unicast}, meshLRU, meshUFast, meshPromo, meshFast}
)

// grid crosses the benchmarks (outer) with the cells (inner): the job
// list of every figure sweep.
func (cfg ExpConfig) grid(benches []string, cells ...cell) []Options {
	var opts []Options
	for _, b := range benches {
		for _, c := range cells {
			opts = append(opts, cfg.run(c, b))
		}
	}
	return opts
}

// designCells is Designs A-F under multicast Fast-LRU, or under the
// config's scheme override.
func (cfg ExpConfig) designCells() ([]cell, error) {
	p, m, err := cfg.scheme(cache.FastLRU, cache.Multicast)
	var cells []cell
	for _, d := range config.Designs() {
		cells = append(cells, cell{d.ID, p, m})
	}
	return cells, err
}

// fig7Jobs is Figure 7's grid: the unicast LRU baseline on Design A.
func fig7Jobs(cfg ExpConfig) ([]Options, error) { return cfg.grid(trace.Names(), meshLRU), nil }

// fig8Jobs is Figure 8's grid: all five schemes on Design A.
func fig8Jobs(cfg ExpConfig) ([]Options, error) { return cfg.grid(trace.Names(), fig8Cells...), nil }

// fig9Jobs is Figure 9's grid: Designs A-F under one scheme.
func fig9Jobs(cfg ExpConfig) ([]Options, error) {
	cells, err := cfg.designCells()
	return cfg.grid(trace.Names(), cells...), err
}

// headlineJobs is the abstract's grid: mesh multicast Promotion, mesh
// multicast Fast-LRU and halo multicast Fast-LRU.
func headlineJobs(cfg ExpConfig) ([]Options, error) {
	return cfg.grid(trace.Names(), meshPromo, meshFast, haloFast), nil
}

// Table4 regenerates the area analysis.
func Table4() ([]area.Report, error) {
	return area.Table4(area.DefaultModel())
}

// energyJobs estimates the energy of all six designs under multicast
// Fast-LRU (or the config's scheme override) on one benchmark (extension
// experiment: the paper names energy analysis as future work).
func energyJobs(cfg ExpConfig) ([]Options, error) {
	cells, err := cfg.designCells()
	return cfg.grid([]string{cfg.bench()}, cells...), err
}

// powerJobs gates the farthest banks of every Design A column, shrinking
// the powered cache from 16 ways down to 2 (extension: the paper's
// "on-demand power control scheme that can dynamically turn on/off a
// subset of cache systems"): gated banks contribute neither capacity nor
// network/bank activity. The gated designs run through the engine via the
// Options.Design override.
func powerJobs(cfg ExpConfig) ([]Options, error) {
	base, err := config.DesignByID("A")
	if err != nil {
		return nil, err
	}
	p, m, err := cfg.scheme(cache.FastLRU, cache.Multicast)
	if err != nil {
		return nil, err
	}
	var opts []Options
	for _, ways := range []int{16, 12, 8, 4, 2} {
		gated := base
		gated.ID = "A-gated"
		gated.Params.H = ways
		gated.Banks = gated.Banks[:ways]       // re-slice only: the backing array is shared read-only
		gated.Params.MemX = gated.Params.CoreX // keep the memory column valid for short meshes
		o := cfg.run(cell{"", p, m}, cfg.bench())
		o.Design = &gated
		opts = append(opts, o)
	}
	return opts, nil
}

// ParetoPoint is one (router, design, scheme) operating point of the
// cost/performance sweep: silicon cost from the area model, energy and
// latency from the simulation. Points no engine can run carry the reason
// in Skipped instead of measurements.
type ParetoPoint struct {
	RouterName string
	DesignID   string
	Scheme     string

	IPC      float64
	AvgLat   float64 // average L2 access latency (cycles)
	AreaMM2  float64 // L2 area: banks + routers + links
	NetMM2   float64 // interconnect share of AreaMM2
	EnergyNJ float64 // nJ per L2 access

	// Frontier marks points no other point dominates (lower area, lower
	// latency, and lower energy, strictly better in at least one).
	Frontier bool
	// Skipped carries the constructor's rejection for combinations the
	// engine declared unsupported; the point has no measurements.
	Skipped string
}

// dominated reports whether q beats p on every Pareto axis (area,
// latency, energy) and strictly on at least one.
func (p ParetoPoint) dominated(q ParetoPoint) bool {
	if q.AreaMM2 > p.AreaMM2 || q.AvgLat > p.AvgLat || q.EnergyNJ > p.EnergyNJ {
		return false
	}
	return q.AreaMM2 < p.AreaMM2 || q.AvgLat < p.AvgLat || q.EnergyNJ < p.EnergyNJ
}

// ParetoSweep crosses every registered router microarchitecture with the
// mesh (A), simplified mesh (D), halo (F), and ring (R) representatives
// and both multicast schemes on one benchmark, then marks the
// area/latency/energy frontier. Combinations an engine rejects (its
// Supports declaration) are reported as skipped rather than failing the
// sweep, so registering a constrained engine never breaks the experiment.
func ParetoSweep(cfg ExpConfig, bench string) ([]ParetoPoint, SweepReport, error) {
	model := area.DefaultModel()
	var opts []Options
	var pts []ParetoPoint
	for _, rt := range router.Names() {
		for _, id := range []string{"A", "D", "F", "R"} {
			for _, p := range []cache.Policy{cache.Promotion, cache.FastLRU} {
				c := cell{id, p, cache.Multicast}
				o := cfg.run(c, bench)
				o.Router = rt
				pt := ParetoPoint{RouterName: rt, DesignID: id, Scheme: c.scheme()}
				if err := o.Validate(); err != nil {
					pt.Skipped = err.Error()
					pts = append(pts, pt)
					continue
				}
				d, err := config.DesignByID(id)
				if err != nil {
					return nil, SweepReport{}, err
				}
				d.Router.Engine = rt
				rep, err := model.Analyze(d)
				if err != nil {
					return nil, SweepReport{}, err
				}
				pt.AreaMM2, pt.NetMM2 = rep.L2MM2(), rep.NetworkMM2()
				opts = append(opts, o)
				pts = append(pts, pt)
			}
		}
	}
	rs, rep, err := cfg.sweep(opts)
	if err != nil {
		return nil, rep, err
	}
	// Results map back in submission order; skipped points consumed none.
	for i := range pts {
		if pts[i].Skipped == "" {
			r := rs[0]
			rs = rs[1:]
			pts[i].IPC, pts[i].AvgLat, pts[i].EnergyNJ = r.IPC, r.AvgLatency, r.Energy.PerAccessNJ()
		}
	}
	for i, p := range pts {
		pts[i].Frontier = p.Skipped == "" && !slices.ContainsFunc(pts, func(q ParetoPoint) bool {
			return q.Skipped == "" && p.dominated(q)
		})
	}
	return pts, rep, nil
}

// Table2Row reports the generator's self-check against the Table 2
// profile it models.
type Table2Row struct {
	Profile       trace.Profile
	GenWriteFrac  float64
	GenAccPerInst float64
	GenHitRate16  float64 // reference 16-way LRU hit rate of the stream
}

// Table2Check drives each generator and measures the quantities Table 2
// pins down plus the modeled hit rate.
func Table2Check(n int, seed uint64) []Table2Row {
	am := trace.AddrMap{Columns: 16, Sets: 1024}
	var out []Table2Row
	for _, p := range trace.Profiles() {
		g := trace.NewSynthetic(p, am, seed)
		ref := cache.NewGolden(cache.LRU, slices.Repeat([]bank.Spec{{SizeKB: 64, Ways: 1}}, 16), am.Columns, am.Sets)
		for i, blocks := range g.WarmBlocks(16) {
			ref.Warm(i%am.Columns, i/am.Columns, blocks)
		}
		writes, hits := 0, 0
		var instr int64
		for i := 0; i < n; i++ {
			a := g.Next()
			instr += a.Gap
			if a.Write {
				writes++
			}
			hit, _, _, _ := ref.Access(am.ColumnOf(a.Addr), am.SetOf(a.Addr), am.TagOf(a.Addr))
			if hit {
				hits++
			}
		}
		out = append(out, Table2Row{
			Profile:       p,
			GenWriteFrac:  float64(writes) / float64(n),
			GenAccPerInst: float64(n) / float64(instr),
			GenHitRate16:  float64(hits) / float64(n),
		})
	}
	return out
}

// cmpJobs is the sharing-contention sweep (extension: the paper's primary
// stated future work): 1, 2, 4, and 8 trace-driven cores on the
// two-chiplet hierarchical design under the directory policy, measuring
// how aggregate throughput, tail latency, and cross-core interference
// scale as the fabric is shared. Every run records the link heatmap; the
// table shows the largest run's.
func cmpJobs(cfg ExpConfig) ([]Options, error) {
	// The policy is part of the experiment's definition: the x-evict
	// column exists only under the directory policy's ownership
	// bookkeeping, so the -policy override is ignored here (the mode
	// override still applies).
	m := cache.Multicast
	if cfg.ModeName != "" {
		var err error
		if m, err = cache.ParseMode(cfg.ModeName); err != nil {
			return nil, err
		}
	}
	var opts []Options
	for _, n := range []int{1, 2, 4, 8} {
		o := cfg.run(cell{"H2", cache.Directory, m}, cfg.bench())
		o.Cores = n
		o.Telemetry = telemetry.Config{Heatmap: true}
		opts = append(opts, o)
	}
	return opts, nil
}

// telemetryJobs runs a mesh (A), a simplified mesh (D), and a halo (F)
// on one benchmark with the configured probes (a heatmap plus a
// 200-cycle series when none is set) under multicast Fast-LRU — the
// side-by-side spatial view of how the three topologies spread the same
// workload's traffic.
func telemetryJobs(cfg ExpConfig) ([]Options, error) {
	p, m, err := cfg.scheme(cache.FastLRU, cache.Multicast)
	tcfg := cfg.Telemetry
	if !tcfg.Enabled() {
		tcfg = telemetry.Config{Heatmap: true, SampleEvery: 200}
	}
	opts := cfg.grid([]string{cfg.bench()}, cell{"A", p, m}, cell{"D", p, m}, cell{"F", p, m})
	for i := range opts {
		opts[i].Telemetry = tcfg
	}
	return opts, err
}
