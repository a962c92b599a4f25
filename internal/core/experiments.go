package core

import (
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
	// by TestExperimentDriversDeterministicAcrossWorkers).
	Workers int
	// Policy and Mode are the replacement scheme of the single-scheme
	// experiments (Fig9, energy, power gating, telemetry);
	// DefaultExpConfig sets the paper configuration, multicast Fast-LRU.
	// The cmp experiment takes Mode only: its policy is the directory.
	// Fixed-scheme reproductions (Fig7's unicast-LRU baseline, Fig8's
	// five-scheme comparison, the headline claims, the Pareto sweep)
	// ignore both by design.
	Policy cache.Policy
	Mode   cache.Mode
	// RouterName overrides the router microarchitecture of every run in
	// an experiment (the -router flag); empty keeps each design's engine.
	// Names resolve through router.ByName.
	RouterName string
	// Bench selects the benchmark of the single-benchmark experiments
	// (energy, power, pareto, telemetry); empty keeps the
	// paper's gcc. The all-benchmark sweeps (f7-f9, headline) ignore it.
	Bench string
	// Telemetry configures the probes of the telemetry experiment; the
	// zero value selects its default probe set. Other experiments ignore
	// it.
	Telemetry telemetry.Config
}

// bench resolves the single-benchmark experiments' benchmark.
func (cfg ExpConfig) bench() string {
	if cfg.Bench == "" {
		return "gcc"
	}
	return cfg.Bench
}

// DefaultExpConfig is the paper configuration: multicast Fast-LRU, with
// the full figure sweeps (paperbench -exp all) kept to about 25 s wall
// at -j 2 on a 2-vCPU Xeon @ 2.10 GHz.
func DefaultExpConfig() ExpConfig {
	return ExpConfig{Accesses: 8000, Seed: 42, Policy: cache.FastLRU, Mode: cache.Multicast}
}

// cell is the given design under the configured scheme.
func (cfg ExpConfig) cell(design string) cell { return cell{design, cfg.Policy, cfg.Mode} }

// run builds the Options of cell c on bench.
func (cfg ExpConfig) run(c cell, bench string) Options {
	return Options{
		DesignID: c.design, Policy: c.policy, Mode: c.mode, Router: cfg.RouterName,
		Benchmark: bench, Accesses: cfg.Accesses, Seed: cfg.Seed,
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

// designCells is Designs A-F under the configured scheme.
func (cfg ExpConfig) designCells() []cell {
	var cells []cell
	for _, d := range config.Designs() {
		cells = append(cells, cfg.cell(d.ID))
	}
	return cells
}

// fig7Jobs is Figure 7's grid: the unicast LRU baseline on Design A.
func fig7Jobs(cfg ExpConfig) []Options { return cfg.grid(trace.Names(), meshLRU) }

// fig8Jobs is Figure 8's grid: all five schemes on Design A.
func fig8Jobs(cfg ExpConfig) []Options { return cfg.grid(trace.Names(), fig8Cells...) }

// fig9Jobs is Figure 9's grid: Designs A-F under one scheme.
func fig9Jobs(cfg ExpConfig) []Options { return cfg.grid(trace.Names(), cfg.designCells()...) }

// headlineJobs is the abstract's grid: mesh multicast Promotion, mesh
// multicast Fast-LRU and halo multicast Fast-LRU.
func headlineJobs(cfg ExpConfig) []Options {
	return cfg.grid(trace.Names(), meshPromo, meshFast, haloFast)
}

// energyJobs estimates the energy of all six designs under the
// configured scheme on one benchmark (extension experiment: the paper
// names energy analysis as future work).
func energyJobs(cfg ExpConfig) []Options {
	return cfg.grid([]string{cfg.bench()}, cfg.designCells()...)
}

// powerJobs gates the farthest banks of every Design A column, shrinking
// the powered cache from 16 ways down to 2 (extension: the paper's
// "on-demand power control scheme that can dynamically turn on/off a
// subset of cache systems"): gated banks contribute neither capacity nor
// network/bank activity. The gated designs run through the engine via the
// Options.Design override.
func powerJobs(cfg ExpConfig) []Options {
	base := config.Designs()[0] // Table 3's Design A
	var opts []Options
	for _, ways := range []int{16, 12, 8, 4, 2} {
		gated := base
		gated.ID = "A-gated"
		gated.Params.H = ways
		gated.Banks = gated.Banks[:ways]       // re-slice only: the backing array is shared read-only
		gated.Params.MemX = gated.Params.CoreX // keep the memory column valid for short meshes
		o := cfg.run(cfg.cell(""), cfg.bench())
		o.Design = &gated
		opts = append(opts, o)
	}
	return opts
}

// paretoGrid crosses every router microarchitecture with the mesh (A),
// simplified mesh (D), halo (F), and ring (R) representatives and both
// multicast schemes on the configured benchmark: the Pareto sweep's
// points, those an engine rejects included.
func paretoGrid(cfg ExpConfig) []Options {
	var opts []Options
	for _, rt := range router.Names() {
		for _, id := range []string{"A", "D", "F", "R"} {
			for _, p := range []cache.Policy{cache.Promotion, cache.FastLRU} {
				o := cfg.run(cell{id, p, cache.Multicast}, cfg.bench())
				o.Router = rt
				opts = append(opts, o)
			}
		}
	}
	return opts
}

// paretoJobs is the grid points the engines accept (their Supports
// declaration, checked by Options.Validate), so adding a constrained
// engine never breaks the sweep.
func paretoJobs(cfg ExpConfig) []Options {
	return slices.DeleteFunc(paretoGrid(cfg), func(o Options) bool { return o.Validate() != nil })
}

// paretoPoint is one (router, design, scheme) operating point of the
// cost/performance sweep: silicon cost from the area model, energy and
// latency from the simulation. Points no engine can run carry the reason
// in Skipped instead of measurements.
type paretoPoint struct {
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
	// Skipped carries the rejection of a combination the engine declared
	// unsupported; the point has no measurements.
	Skipped string
}

// dominated reports whether q beats p on every Pareto axis (area,
// latency, energy) and strictly on at least one.
func (p paretoPoint) dominated(q paretoPoint) bool {
	if q.AreaMM2 > p.AreaMM2 || q.AvgLat > p.AvgLat || q.EnergyNJ > p.EnergyNJ {
		return false
	}
	return q.AreaMM2 < p.AreaMM2 || q.AvgLat < p.AvgLat || q.EnergyNJ < p.EnergyNJ
}

// paretoPoints rebuilds the sweep's points from its runs: each grid
// point in order, a rejected one carrying Validate's reason and every
// other one the next run, its area from the run's resolved design; then
// it marks the area/latency/energy frontier.
func paretoPoints(cfg ExpConfig, runs []Result) []paretoPoint {
	model := area.DefaultModel()
	var pts []paretoPoint
	for _, o := range paretoGrid(cfg) {
		pt := paretoPoint{RouterName: o.Router, DesignID: o.DesignID, Scheme: cell{o.DesignID, o.Policy, o.Mode}.scheme()}
		if err := o.Validate(); err != nil {
			pt.Skipped = err.Error()
		} else {
			r := runs[0]
			runs = runs[1:]
			rep, _ := model.Analyze(r.Design) // the design ran, so it builds and its engine is registered
			pt.AreaMM2, pt.NetMM2 = rep.L2MM2(), rep.NetworkMM2()
			pt.IPC, pt.AvgLat, pt.EnergyNJ = r.IPC, r.AvgLatency, r.Energy.PerAccessNJ()
		}
		pts = append(pts, pt)
	}
	for i, p := range pts {
		pts[i].Frontier = p.Skipped == "" && !slices.ContainsFunc(pts, func(q paretoPoint) bool {
			return q.Skipped == "" && p.dominated(q)
		})
	}
	return pts
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
// scale as the fabric is shared. Only the largest run records the link
// heatmap: it is the one the table shows.
func cmpJobs(cfg ExpConfig) []Options {
	// The policy is part of the experiment's definition: the x-evict
	// column exists only under the directory policy's ownership
	// bookkeeping, so cfg.Policy is ignored here (cfg.Mode applies).
	var opts []Options
	for _, n := range []int{1, 2, 4, 8} {
		o := cfg.run(cell{"H2", cache.Directory, cfg.Mode}, cfg.bench())
		o.Cores = n
		opts = append(opts, o)
	}
	opts[len(opts)-1].Telemetry = telemetry.Config{Heatmap: true}
	return opts
}

// telemetryJobs runs a mesh (A), a simplified mesh (D), and a halo (F)
// on one benchmark with the configured probes (a heatmap plus a
// 200-cycle series when none is set) under the configured scheme — the
// side-by-side spatial view of how the three topologies spread the same
// workload's traffic.
func telemetryJobs(cfg ExpConfig) []Options {
	tcfg := cfg.Telemetry
	if !tcfg.Enabled() {
		tcfg = telemetry.Config{Heatmap: true, SampleEvery: 200}
	}
	opts := cfg.grid([]string{cfg.bench()}, cfg.cell("A"), cfg.cell("D"), cfg.cell("F"))
	for i := range opts {
		opts[i].Telemetry = tcfg
	}
	return opts
}
