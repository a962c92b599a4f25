// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Section 5-6) and prints the same rows/series.
//
// Usage:
//
//	paperbench -list             # catalogue of registered experiments
//	paperbench -list=all         # every registry catalogue (designs, routers, ...)
//	paperbench -exp all          # everything (several minutes)
//	paperbench -exp f9 -n 4000   # one experiment, smaller runs
//	paperbench -exp f9 -j 8      # fan the sweep out to 8 workers
//	paperbench -exp telemetry -heatmap -sample 200
//	paperbench -exp f9 -policy static    # any registered policy name
//
// Experiments dispatch through the core experiment registry
// (core.RegisterExperiment): every name -exp accepts, this command's
// -list output, and nucad's GET /v1/experiments derive from the same
// catalogue, so a newly registered experiment is reachable everywhere
// with no flag plumbing. "-exp all" runs the registered experiments
// that opt into the full reproduction (the paper's tables and figures);
// special-purpose experiments (telemetry, placement) run only when
// named.
//
// -policy and -mode steer the single-scheme experiments (f9, energy,
// power, telemetry); names resolve through the cache policy registry, so
// policies added with cache.RegisterPolicy work unchanged. The
// fixed-scheme reproductions (t1-t4, f7, f8, headline) ignore them.
// -router overrides the router microarchitecture of every simulated run;
// it resolves through the router registry (-list=routers on nucasim).
// -bench selects the benchmark of the single-benchmark experiments
// (energy, power, pareto, telemetry, placement).
//
// The telemetry section compares designs A, D, and F side by side on one
// benchmark with cycle-level probes: -heatmap prints ASCII link/bank
// heatmaps, -sample N prints queue-occupancy time series, -trace F
// writes the flit-level JSONL trace. Passing any of those flags appends
// the section after the selected experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nucanet/internal/cliutil"
	"nucanet/internal/core"
	_ "nucanet/internal/place" // registers the "placement" experiment in the catalogue
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment name (see -list), or all")
		n      = flag.Int("n", 8000, "measured L2 accesses per run")
		seed   = flag.Uint64("seed", 42, "random seed")
		bench  = flag.String("bench", "", "benchmark for the single-benchmark experiments (default gcc)")
		jobs   = cliutil.Jobs(flag.CommandLine)
		cores  = cliutil.Cores(flag.CommandLine)
		tflags = cliutil.Telemetry(flag.CommandLine)
	)
	listFlag := cliutil.List(flag.CommandLine, "experiments")
	routerName := cliutil.Router(flag.CommandLine)
	policy, mode := cliutil.Scheme(flag.CommandLine)
	flag.Parse()
	if done, err := listFlag.Handle(os.Stdout); done {
		fatal(err)
		return
	}
	workers, err := cliutil.ResolveJobs(*jobs)
	fatal(err)
	// The scheme flags steer the single-scheme experiments (f9, energy,
	// power, telemetry); any name registered with cache.RegisterPolicy
	// parses. The fixed-scheme reproductions (t1-t4, f7, f8, headline)
	// ignore them by design. Defaults match the paper configuration.
	cfg := core.ExpConfig{
		Accesses: *n, Seed: *seed, Workers: workers,
		PolicyName: policy.String(), ModeName: mode.String(),
		RouterName: *routerName, Bench: *bench,
		Telemetry: tflags.Config(), Cores: *cores,
	}
	traceOut := *tflags.TracePath

	if *exp == "all" {
		for _, name := range core.ExperimentNames() {
			e, err := core.ExperimentByName(name)
			fatal(err)
			if e.InAll {
				runExperiment(e, cfg, traceOut)
			}
		}
		if cfg.Telemetry.Enabled() {
			runNamed("telemetry", cfg, traceOut)
		}
		return
	}
	e, err := core.ExperimentByName(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (want %s, or all)\n",
			*exp, strings.Join(core.ExperimentNames(), " "))
		os.Exit(1)
	}
	runExperiment(e, cfg, traceOut)
	if cfg.Telemetry.Enabled() && *exp != "telemetry" {
		runNamed("telemetry", cfg, traceOut)
	}
}

func runNamed(name string, cfg core.ExpConfig, traceOut string) {
	e, err := core.ExperimentByName(name)
	fatal(err)
	runExperiment(e, cfg, traceOut)
}

// runExperiment prints one experiment: header, rendered rows, optional
// trace export (of whichever runs of a sweep recorded one), and the sweep
// accounting line when the experiment drove the simulation engine.
func runExperiment(e core.Experiment, cfg core.ExpConfig, traceOut string) {
	header(e.Title(cfg))
	rows, rep, err := e.Run(cfg)
	fatal(err)
	rows.Render(os.Stdout)
	if sweep, ok := rows.(core.SweepRows); ok && traceOut != "" {
		fatal(cliutil.WriteTraces(traceOut, sweep.Runs))
	}
	if rep.Runs > 0 {
		sweepLine(rep)
	}
}

func header(s string) {
	fmt.Printf("\n=== %s ===\n", s)
}

// sweepLine reports the engine's accounting for one sweep: total wall
// time, summed per-run work, and the realized parallel speedup.
func sweepLine(rep core.SweepReport) {
	fmt.Printf("[%d runs, j=%d: wall %.1fs, work %.1fs, speedup %.1fx]\n",
		rep.Runs, rep.Workers, rep.Wall.Seconds(), rep.Work.Seconds(), rep.Speedup())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
