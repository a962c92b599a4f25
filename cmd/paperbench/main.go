// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Section 5-6) and prints the same rows/series.
//
// Usage:
//
//	paperbench -list             # the experiment catalogue
//	paperbench -list=all         # every catalogue (designs, routers, ...)
//	paperbench -exp all          # everything (~25 s at -j 2 on a 2-vCPU Xeon @ 2.10 GHz)
//	paperbench -exp f9 -n 4000   # one experiment, smaller runs
//	paperbench -exp f9 -j 8      # fan the sweep out to 8 workers
//	paperbench -exp telemetry -heatmap -sample 200
//	paperbench -exp f9 -policy lru       # any policy name (-list=policies)
//
// Experiments dispatch through core's experiment table: every name -exp
// accepts, every binary's -list=experiments output, and nucad's GET
// /v1/experiments derive from it, so a row added there is reachable
// everywhere with no flag plumbing. A row is a job list plus a renderer:
// Experiment.Run fans the jobs out on the engine once (the static tables
// have none and run nothing), and paperbench prints the rendered table,
// exports the runs' traces under -trace and prints the sweep's
// accounting line. "-exp all" runs the experiments that opt into the
// full reproduction (the paper's tables and figures); special-purpose
// experiments (telemetry, cmp) run only when named. The placement search
// is cmd/nucaopt.
//
// -policy and -mode steer the single-scheme experiments (f9, energy,
// power, telemetry), and -mode the cmp sweep; the defaults are the
// paper's multicast Fast-LRU, and an unknown name exits 1 listing the
// catalogue. The fixed-scheme reproductions (t1-t4, f7, f8, headline,
// pareto) ignore them. The CMP study is -exp cmp (1-8 cores); every
// other experiment runs the classic single-core path.
// -router overrides the router microarchitecture of every simulated run
// (-list=routers). -bench selects the benchmark of the single-benchmark
// experiments (energy, power, pareto, telemetry).
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
)

func main() {
	cfg := core.DefaultExpConfig()
	var (
		exp    = flag.String("exp", "all", "experiment name (see -list), or all")
		n      = flag.Int("n", cfg.Accesses, "measured L2 accesses per run")
		seed   = flag.Uint64("seed", cfg.Seed, "random seed")
		bench  = flag.String("bench", "", "benchmark for the single-benchmark experiments (default gcc)")
		jobs   = cliutil.Jobs(flag.CommandLine)
		tflags = cliutil.Telemetry(flag.CommandLine)
	)
	listFlag := cliutil.List(flag.CommandLine, "experiments")
	routerName := cliutil.Router(flag.CommandLine)
	scheme := cliutil.Scheme(flag.CommandLine)
	flag.Parse()
	var err error
	cfg.Policy, cfg.Mode, err = scheme()
	fatal(err)
	if done, err := listFlag.Handle(os.Stdout); done {
		fatal(err)
		return
	}
	cfg.Workers, err = cliutil.ResolveJobs(*jobs)
	fatal(err)
	cfg.Accesses, cfg.Seed = *n, *seed
	cfg.RouterName, cfg.Bench, cfg.Telemetry = *routerName, *bench, tflags.Config()
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
// trace export (of whichever runs recorded one), and the sweep
// accounting line when the experiment drove the simulation engine.
func runExperiment(e core.Experiment, cfg core.ExpConfig, traceOut string) {
	header(e.Title(cfg))
	rows, err := e.Run(cfg)
	fatal(err)
	rows.Render(os.Stdout)
	if traceOut != "" {
		fatal(cliutil.WriteTraces(traceOut, rows.Runs))
	}
	if rows.Report.Runs > 0 {
		fmt.Println(rows.Report)
	}
}

func header(s string) {
	fmt.Printf("\n=== %s ===\n", s)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
