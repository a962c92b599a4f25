package core

import (
	"io"
	"math"

	"nucanet/internal/area"
	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/telemetry"
	"nucanet/internal/trace"
)

// Scheme pairs a replacement policy with a request mode — the five bars
// of Figure 8.
type Scheme struct {
	Name   string
	Policy cache.Policy
	Mode   cache.Mode
}

// Fig8Schemes returns the five evaluated schemes in the paper's order.
func Fig8Schemes() []Scheme {
	return []Scheme{
		{"unicast+promotion", cache.Promotion, cache.Unicast},
		{"unicast+LRU", cache.LRU, cache.Unicast},
		{"unicast+fastLRU", cache.FastLRU, cache.Unicast},
		{"multicast+promotion", cache.Promotion, cache.Multicast},
		{"multicast+fastLRU", cache.FastLRU, cache.Multicast},
	}
}

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

// DefaultExpConfig keeps the full figure sweeps to a few minutes.
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

// run builds the Options for one (design, scheme, benchmark) cell.
func (cfg ExpConfig) run(designID string, p cache.Policy, m cache.Mode, bench string) Options {
	return Options{
		DesignID: designID, Policy: p, Mode: m, Router: cfg.RouterName,
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

// fig7Jobs is Figure 7's grid: the unicast LRU baseline on Design A,
// one run per benchmark.
func fig7Jobs(cfg ExpConfig) ([]Options, error) {
	var opts []Options
	for _, name := range trace.Names() {
		opts = append(opts, cfg.run("A", cache.LRU, cache.Unicast, name))
	}
	return opts, nil
}

// fig8Jobs is Figure 8's grid: all five schemes on Design A, benchmark
// major.
func fig8Jobs(cfg ExpConfig) ([]Options, error) {
	schemes := Fig8Schemes()
	var opts []Options
	for _, name := range trace.Names() {
		for _, s := range schemes {
			opts = append(opts, cfg.run("A", s.Policy, s.Mode, name))
		}
	}
	return opts, nil
}

// fig9Jobs is Figure 9's grid: Designs A-F under multicast Fast-LRU (or
// the config's scheme override), benchmark major, so each benchmark's
// block leads with the Design A run the others normalize to.
func fig9Jobs(cfg ExpConfig) ([]Options, error) {
	p, m, err := cfg.scheme(cache.FastLRU, cache.Multicast)
	if err != nil {
		return nil, err
	}
	designs := config.Designs()
	var opts []Options
	for _, name := range trace.Names() {
		for _, d := range designs {
			opts = append(opts, cfg.run(d.ID, p, m, name))
		}
	}
	return opts, nil
}

// Table4 regenerates the area analysis.
func Table4() ([]area.Report, error) {
	return area.Table4(area.DefaultModel())
}

// Headline carries the abstract's three claims, recomputed.
type Headline struct {
	// IPCGainVsMeshPromotion: halo (F) multicast Fast-LRU vs mesh (A)
	// multicast Promotion — the paper reports +38% on average.
	IPCGainVsMeshPromotion float64
	// InterconnectAreaRatio: design F network area over design A's —
	// the paper reports 23%.
	InterconnectAreaRatio float64
	// FastLRUIPCGain: multicast Fast-LRU vs multicast Promotion on the
	// mesh — the paper reports +20%.
	FastLRUIPCGain float64
	// HaloIPCGain: design F vs design A, both multicast Fast-LRU — the
	// abstract attributes +18% to the halo topology.
	HaloIPCGain float64
}

// ComputeHeadline reruns the relevant configurations and aggregates the
// geometric-mean gains across all benchmarks.
func ComputeHeadline(cfg ExpConfig) (Headline, SweepReport, error) {
	var h Headline
	names := trace.Names()
	// Three runs per benchmark: mesh Promotion base, mesh Fast-LRU,
	// halo Fast-LRU — flattened so the engine sees one job list.
	var opts []Options
	for _, name := range names {
		opts = append(opts,
			cfg.run("A", cache.Promotion, cache.Multicast, name),
			cfg.run("A", cache.FastLRU, cache.Multicast, name),
			cfg.run("F", cache.FastLRU, cache.Multicast, name))
	}
	rs, rep, err := cfg.sweep(opts)
	if err != nil {
		return h, rep, err
	}
	gm := func(ratios []float64) float64 {
		p := 1.0
		for _, r := range ratios {
			p *= r
		}
		return math.Pow(p, 1/float64(len(ratios)))
	}
	var vsPromo, fastGain, haloGain []float64
	for i := range names {
		base, meshFast, haloFast := rs[3*i], rs[3*i+1], rs[3*i+2]
		vsPromo = append(vsPromo, haloFast.IPC/base.IPC)
		fastGain = append(fastGain, meshFast.IPC/base.IPC)
		haloGain = append(haloGain, haloFast.IPC/meshFast.IPC)
	}
	h.IPCGainVsMeshPromotion = gm(vsPromo)
	h.FastLRUIPCGain = gm(fastGain)
	h.HaloIPCGain = gm(haloGain)

	reps, err := Table4()
	if err != nil {
		return h, rep, err
	}
	var aNet, fNet float64
	for _, r := range reps {
		switch r.DesignID {
		case "A":
			aNet = r.NetworkMM2()
		case "F":
			fNet = r.NetworkMM2()
		}
	}
	h.InterconnectAreaRatio = fNet / aNet
	return h, rep, nil
}

// energyJobs estimates the energy of all six designs under multicast
// Fast-LRU (or the config's scheme override) on one benchmark (extension
// experiment: the paper names energy analysis as future work).
func energyJobs(cfg ExpConfig) ([]Options, error) {
	p, m, err := cfg.scheme(cache.FastLRU, cache.Multicast)
	if err != nil {
		return nil, err
	}
	var opts []Options
	for _, d := range config.Designs() {
		opts = append(opts, cfg.run(d.ID, p, m, cfg.bench()))
	}
	return opts, nil
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
		o := cfg.run("", p, m, cfg.bench())
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
	schemes := []Scheme{
		{"multicast+promotion", cache.Promotion, cache.Multicast},
		{"multicast+fastLRU", cache.FastLRU, cache.Multicast},
	}
	ids := []string{"A", "D", "F", "R"}
	model := area.DefaultModel()
	var opts []Options
	var pts []ParetoPoint
	for _, rt := range router.Names() {
		for _, id := range ids {
			for _, s := range schemes {
				o := cfg.run(id, s.Policy, s.Mode, bench)
				o.Router = rt
				pt := ParetoPoint{RouterName: rt, DesignID: id, Scheme: s.Name}
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
	j := 0
	for i := range pts {
		if pts[i].Skipped != "" {
			continue
		}
		r := rs[j]
		j++
		pts[i].IPC = r.IPC
		pts[i].AvgLat = r.AvgLatency
		pts[i].EnergyNJ = r.Energy.PerAccessNJ()
	}
	for i := range pts {
		if pts[i].Skipped != "" {
			continue
		}
		dom := false
		for k := range pts {
			if k != i && pts[k].Skipped == "" && pts[i].dominated(pts[k]) {
				dom = true
				break
			}
		}
		pts[i].Frontier = !dom
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
		ref := cache.NewGolden(cache.LRU, uniformSpecs(16), am.Columns, am.Sets)
		warm := g.WarmBlocks(16)
		for set := 0; set < am.Sets; set++ {
			for c := 0; c < am.Columns; c++ {
				ref.Warm(c, set, warm[set*am.Columns+c])
			}
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

func uniformSpecs(n int) []bank.Spec {
	out := make([]bank.Spec, n)
	for i := range out {
		out[i] = bank.Spec{SizeKB: 64, Ways: 1}
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
		o := cfg.run("H2", cache.Directory, m, cfg.bench())
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
	if err != nil {
		return nil, err
	}
	tcfg := cfg.Telemetry
	if !tcfg.Enabled() {
		tcfg = telemetry.Config{Heatmap: true, SampleEvery: 200}
	}
	var opts []Options
	for _, id := range []string{"A", "D", "F"} {
		o := cfg.run(id, p, m, cfg.bench())
		o.Telemetry = tcfg
		opts = append(opts, o)
	}
	return opts, nil
}
