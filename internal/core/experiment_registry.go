package core

import (
	"fmt"
	"io"
	"slices"
)

// Rows is a rendered experiment result: every experiment returns its
// rows (SweepRows for the simulation sweeps, a print closure for the
// static tables and the Pareto sweep) behind this interface, and Render
// writes the exact human-readable table cmd/paperbench prints. Callers
// needing a sweep's runs type-assert to SweepRows.
type Rows interface {
	Render(w io.Writer)
}

// Experiment is one experiment driver: a named, uniformly invocable
// reproduction of a paper table/figure or an extension study. The
// experiments table is the fifth of the repo's catalogues (topologies,
// routing algorithms, replacement policies, router engines,
// experiments): cmd/paperbench's -exp dispatch, every binary's
// -list=experiments and nucad's experiment catalogue all derive from it,
// so a row added there is reachable everywhere with no further plumbing.
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
	// Run executes the experiment. The SweepReport is zero for
	// experiments that do not drive the simulation engine.
	Run func(cfg ExpConfig) (Rows, SweepReport, error)
}

// experiments is the closed catalogue, in the paper's presentation
// order: a new experiment is one row here.
var experiments = []Experiment{
	{
		Name: "t1", About: "Table 1 system parameters (bank latencies, memory, router)",
		Title: staticTitle("Table 1: system parameters"), InAll: true,
		Run: func(ExpConfig) (Rows, SweepReport, error) { return rowsFunc(renderTable1), SweepReport{}, nil },
	},
	{
		Name: "t2", About: "Table 2 benchmark profiles vs generator self-check",
		Title: staticTitle("Table 2: benchmarks (profile vs generator self-check)"), InAll: true,
		Run: func(cfg ExpConfig) (Rows, SweepReport, error) {
			rows := Table2Check(40000, cfg.Seed)
			return rowsFunc(func(w io.Writer) { renderTable2(w, rows) }), SweepReport{}, nil
		},
	},
	{
		Name: "t3", About: "Table 3 network design catalogue",
		Title: staticTitle("Table 3: network designs"), InAll: true,
		Run: func(ExpConfig) (Rows, SweepReport, error) { return rowsFunc(renderTable3), SweepReport{}, nil },
	},
	{
		Name: "t4", About: "Table 4 area analysis (cacti-lite model)",
		Title: staticTitle("Table 4: area analysis (cacti-lite model)"), InAll: true,
		Run: func(ExpConfig) (Rows, SweepReport, error) {
			reps, err := Table4()
			return rowsFunc(func(w io.Writer) { renderTable4(w, reps) }), SweepReport{}, err
		},
	},
	{
		Name: "f7", About: "Figure 7 latency split of the unicast LRU baseline",
		Title: staticTitle("Figure 7: L2 access latency split, unicast LRU, Design A"), InAll: true,
		Run: sweepExperiment(fig7Jobs, renderFig7),
	},
	{
		Name: "f8", About: "Figure 8 access latency across the five replacement schemes",
		Title: staticTitle("Figure 8: access latency by scheme, Design A"), InAll: true,
		Run: sweepExperiment(fig8Jobs, renderFig8),
	},
	{
		Name: "f9", About: "Figure 9 normalized IPC across designs A-F",
		Title: func(cfg ExpConfig) string { return "Figure 9: normalized IPC by design, " + cfg.cell("").scheme() },
		InAll: true,
		Run:   sweepExperiment(fig9Jobs, renderFig9),
	},
	{
		Name: "headline", About: "abstract's headline claims, recomputed",
		Title: staticTitle("Headline claims (abstract)"), InAll: true,
		Run: sweepExperiment(headlineJobs, renderHeadline),
	},
	{
		Name: "energy", About: "per-design energy estimate (extension: the paper's stated future work)",
		Title: staticTitle("Energy comparison (extension: the paper's stated future work)"), InAll: true,
		Run: sweepExperiment(energyJobs, renderEnergy),
	},
	{
		Name: "power", About: "power-gating sweep (extension: on-demand power control)",
		Title: staticTitle("Power-gating sweep (extension: the paper's on-demand power control)"), InAll: true,
		Run: sweepExperiment(powerJobs, renderPower),
	},
	{
		Name: "pareto", About: "router engine x design x scheme cost/performance frontier",
		Title: func(cfg ExpConfig) string {
			return fmt.Sprintf("Pareto sweep: router engine x design x scheme (%s)", cfg.bench())
		},
		InAll: true,
		Run: func(cfg ExpConfig) (Rows, SweepReport, error) {
			pts, rep, err := ParetoSweep(cfg)
			return rowsFunc(func(w io.Writer) { renderPareto(w, pts) }), rep, err
		},
	},
	{
		Name: "telemetry", About: "cycle-level probe comparison of designs A, D, F",
		Title: func(cfg ExpConfig) string {
			return "Telemetry: spatial and temporal view, designs A / D / F on " + cfg.bench() + ", " + cfg.cell("").scheme()
		},
		InAll: false, // runs when named or when probe flags are set
		Run:   sweepExperiment(telemetryJobs, renderTelemetry),
	},
	{
		Name: "cmp", About: "sharing-contention sweep: 1-8 cores on the two-chiplet hierarchy (extension: the paper's CMP future work)",
		Title: func(cfg ExpConfig) string {
			return "CMP sharing contention: design H2 (mesh chiplets + bridge ring), " +
				cfg.bench() + ", directory policy, 1-8 cores"
		},
		InAll: false, // CMP fabric study; runs when named
		Run:   sweepExperiment(cmpJobs, renderCMP),
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
