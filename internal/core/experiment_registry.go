package core

import (
	"fmt"
	"io"

	"nucanet/internal/registry"
)

// Rows is a rendered experiment result: every experiment returns its
// rows (SweepRows for the simulation sweeps, a print closure for the
// static tables and the Pareto sweep) behind this interface, and Render
// writes the exact human-readable table cmd/paperbench prints. Callers
// needing a sweep's runs type-assert to SweepRows.
type Rows interface {
	Render(w io.Writer)
}

// Experiment is one registered experiment driver: a named, uniformly
// invocable reproduction of a paper table/figure or an extension study.
// The registry is the fifth of the repo's registries (topologies,
// routing algorithms, replacement policies, router engines,
// experiments): cmd/paperbench's -exp dispatch, nucad's experiment
// catalogue, and the optimizer's objective all derive from it, so
// registering an experiment — from any package — makes it reachable
// everywhere with no further plumbing.
type Experiment struct {
	// Name is the registry key (the -exp argument), e.g. "f9".
	Name string
	// About is a one-line description for catalogues (-exp listings,
	// nucad's GET /v1/experiments).
	About string
	// Title renders the section header; it may fold cfg into the text
	// (scheme override, benchmark).
	Title func(cfg ExpConfig) string
	// InAll marks experiments "-exp all" includes. Interactive or
	// special-purpose experiments (telemetry, placement) register false
	// and run only when named.
	InAll bool
	// Run executes the experiment. The SweepReport is zero for
	// experiments that do not drive the simulation engine.
	Run func(cfg ExpConfig) (Rows, SweepReport, error)
}

var experiments = registry.New[Experiment]("core", "experiment", nil)

// RegisterExperiment adds an experiment to the registry. Like the other
// registries it panics on an invalid or duplicate registration — a
// programming error, not a runtime condition.
func RegisterExperiment(e Experiment) {
	if e.Run == nil || e.Title == nil {
		panic(fmt.Sprintf("core: experiment registration missing title or runner: %+v", e))
	}
	experiments.Register(e.Name, e)
}

// ExperimentByName resolves a registered experiment, erroring with the
// full catalogue on a miss.
func ExperimentByName(name string) (Experiment, error) {
	e, ok := experiments.Lookup(name)
	if !ok {
		return Experiment{}, experiments.Unknown(name, experiments.Sorted())
	}
	return e, nil
}

// ExperimentNames lists registered experiments in registration order —
// the paper's own presentation order for the built-ins, with extensions
// after.
func ExperimentNames() []string { return experiments.Names() }
