package core

import (
	"fmt"
	"io"
	"slices"
)

// Experiment is one experiment driver: a named, uniformly invocable
// reproduction of a paper table/figure or an extension study. The
// experiments table is the fifth of the repo's catalogues (topologies,
// routing algorithms, replacement policies, router engines,
// experiments): cmd/paperbench's -exp dispatch, every binary's
// -list=experiments and nucad's experiment catalogue all derive from it,
// so a row added there is reachable everywhere with no further plumbing.
// A row is a job list and a renderer; Run is the one path that runs it.
type Experiment struct {
	// Name is the catalogue key (the -exp argument), e.g. "f9".
	Name string
	// About is a one-line description for catalogues (-exp listings,
	// nucad's GET /v1/experiments).
	About string
	// Title renders the section header; it may fold cfg into the text
	// (scheme override, benchmark).
	Title func(cfg ExpConfig) string
	// InAll marks experiments "-exp all" includes. Special-purpose
	// experiments (telemetry, cmp) leave it false and run only when
	// named.
	InAll bool

	// jobs is the row's run list; nil for the static tables, which
	// simulate nothing.
	jobs func(cfg ExpConfig) []Options
	// render prints the row's table from its runs, in job-list order.
	render func(w io.Writer, cfg ExpConfig, runs []Result)
}

// SweepRows is what Run returns: the runs in job-list order, the
// engine's accounting of them, and the row's renderer. Each Result
// carries its own Options and resolved Design, so a caller reading Runs
// (tests, the -trace export) needs no per-figure cell type.
type SweepRows struct {
	Runs   []Result
	Report SweepReport

	cfg    ExpConfig
	render func(w io.Writer, cfg ExpConfig, runs []Result)
}

// Render writes the experiment's table.
func (s SweepRows) Render(w io.Writer) { s.render(w, s.cfg, s.Runs) }

// Run builds e's job list and fans it out on the engine once. A row
// without jobs runs nothing and reports zero runs.
func (e Experiment) Run(cfg ExpConfig) (SweepRows, error) {
	var opts []Options
	if e.jobs != nil {
		opts = e.jobs(cfg)
	}
	runs, rep, err := NewEngine(cfg.Workers).RunAll(opts)
	if err != nil {
		return SweepRows{}, err
	}
	return SweepRows{Runs: runs, Report: rep, cfg: cfg, render: e.render}, nil
}

// experiments is the closed catalogue, in the paper's presentation
// order: a new experiment is one row here.
var experiments = []Experiment{
	{
		Name: "t1", About: "Table 1 system parameters (bank latencies, memory, router)",
		Title: staticTitle("Table 1: system parameters"), InAll: true,
		render: renderTable1,
	},
	{
		Name: "t2", About: "Table 2 benchmark profiles vs generator self-check",
		Title: staticTitle("Table 2: benchmarks (profile vs generator self-check)"), InAll: true,
		render: renderTable2,
	},
	{
		Name: "t3", About: "Table 3 network design catalogue",
		Title: staticTitle("Table 3: network designs"), InAll: true,
		render: renderTable3,
	},
	{
		Name: "t4", About: "Table 4 area analysis (cacti-lite model)",
		Title: staticTitle("Table 4: area analysis (cacti-lite model)"), InAll: true,
		render: renderTable4,
	},
	{
		Name: "f7", About: "Figure 7 latency split of the unicast LRU baseline",
		Title: staticTitle("Figure 7: L2 access latency split, unicast LRU, Design A"), InAll: true,
		jobs: fig7Jobs, render: renderFig7,
	},
	{
		Name: "f8", About: "Figure 8 access latency across the five replacement schemes",
		Title: staticTitle("Figure 8: access latency by scheme, Design A"), InAll: true,
		jobs: fig8Jobs, render: renderFig8,
	},
	{
		Name: "f9", About: "Figure 9 normalized IPC across designs A-F",
		Title: func(cfg ExpConfig) string { return "Figure 9: normalized IPC by design, " + cfg.cell("").scheme() },
		InAll: true,
		jobs:  fig9Jobs, render: renderFig9,
	},
	{
		Name: "headline", About: "abstract's headline claims, recomputed",
		Title: staticTitle("Headline claims (abstract)"), InAll: true,
		jobs: headlineJobs, render: renderHeadline,
	},
	{
		Name: "energy", About: "per-design energy estimate (extension: the paper's stated future work)",
		Title: staticTitle("Energy comparison (extension: the paper's stated future work)"), InAll: true,
		jobs: energyJobs, render: renderEnergy,
	},
	{
		Name: "power", About: "power-gating sweep (extension: on-demand power control)",
		Title: staticTitle("Power-gating sweep (extension: the paper's on-demand power control)"), InAll: true,
		jobs: powerJobs, render: renderPower,
	},
	{
		Name: "pareto", About: "router engine x design x scheme cost/performance frontier",
		Title: func(cfg ExpConfig) string {
			return fmt.Sprintf("Pareto sweep: router engine x design x scheme (%s)", cfg.bench())
		},
		InAll: true,
		jobs:  paretoJobs, render: renderPareto,
	},
	{
		Name: "telemetry", About: "cycle-level probe comparison of designs A, D, F",
		Title: func(cfg ExpConfig) string {
			return "Telemetry: spatial and temporal view, designs A / D / F on " + cfg.bench() + ", " + cfg.cell("").scheme()
		},
		InAll: false, // runs when named or when probe flags are set
		jobs:  telemetryJobs, render: renderTelemetry,
	},
	{
		Name: "cmp", About: "sharing-contention sweep: 1-8 cores on the two-chiplet hierarchy (extension: the paper's CMP future work)",
		Title: func(cfg ExpConfig) string {
			return "CMP sharing contention: design H2 (mesh chiplets + bridge ring), " +
				cfg.bench() + ", directory policy, 1-8 cores"
		},
		InAll: false, // CMP fabric study; runs when named
		jobs:  cmpJobs, render: renderCMP,
	},
}

// ExperimentByName resolves an experiment, erroring with the full
// catalogue on a miss.
func ExperimentByName(name string) (Experiment, error) {
	for _, e := range experiments {
		if e.Name == name {
			return e, nil
		}
	}
	names := ExperimentNames()
	slices.Sort(names)
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (registered: %v)", name, names)
}

// ExperimentNames lists the experiments in catalogue order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}
