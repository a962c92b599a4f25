// Command nucasim runs one networked-cache simulation and prints its
// measurements: IPC, latency statistics (averages and percentiles), the
// bank/network/memory split, and traffic counters. With -bench all the
// runs fan out to a parallel worker pool (-j), and a merged aggregate
// closes the report.
//
// Cycle-level telemetry is opt-in: -heatmap prints ASCII link/bank
// heatmaps, -sample N prints queue-occupancy time series, and -trace F
// writes the flit-level JSONL event trace ('-' for stdout). Telemetry
// output is deterministic: a fixed seed produces byte-identical traces
// and heatmaps at any -j.
//
// -router selects a registered router microarchitecture (VC wormhole,
// bufferless deflection, ring-lite; -list=routers enumerates them) for
// every run, overriding the design's engine.
//
// -verify-routing skips simulation entirely and runs the static verifier
// over every catalogue design's topology/algorithm pair — the
// channel-dependence deadlock check for buffered engines, the
// productive-route livelock check when -router names a deflecting engine
// — printing one line per design; it exits non-zero if any pair is
// rejected.
//
// Usage:
//
//	nucasim -design A -policy fastlru -mode multicast -bench gcc -n 8000
//	nucasim -design F -bench all -j 8
//	nucasim -design A -router bufferless -bench gcc
//	nucasim -design A -heatmap -sample 100 -trace /tmp/flits.jsonl
//	nucasim -design H2 -policy directory -cores 4   # full-system CMP on the chiplet hierarchy
//	nucasim -verify-routing
//	nucasim -router bufferless -verify-routing
//	nucasim -list                # every registry catalogue
//	nucasim -list=designs        # one catalogue (designs, topologies, routers, policies, experiments)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nucanet/internal/cliutil"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/cpu"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/trace"
)

func main() {
	var (
		design   = cliutil.Design(flag.CommandLine)
		bench    = flag.String("bench", "gcc", "benchmark profile (Table 2) or 'all'")
		n        = flag.Int("n", 8000, "measured L2 accesses")
		seed     = flag.Uint64("seed", 42, "random seed")
		window   = flag.Int("window", 8, "CPU outstanding-access window (MSHRs)")
		blocking = flag.Float64("blocking", 0.35, "fraction of reads that stall the core")
		jobs     = cliutil.Jobs(flag.CommandLine)
		cores    = cliutil.Cores(flag.CommandLine)
		tflags   = cliutil.Telemetry(flag.CommandLine)
		verify   = flag.Bool("verify-routing", false,
			"statically verify deadlock freedom of every catalogue design's routing, then exit")
	)
	listFlag := cliutil.List(flag.CommandLine, "all")
	routerName := cliutil.Router(flag.CommandLine)
	policy, mode := cliutil.Scheme(flag.CommandLine)
	flag.Parse()

	if done, err := listFlag.Handle(os.Stdout); done {
		fatal(err)
		return
	}
	if *verify {
		os.Exit(verifyRouting(os.Stdout, *routerName))
	}

	p, m := *policy, *mode
	workers, err := cliutil.ResolveJobs(*jobs)
	fatal(err)

	traceOut := tflags.TracePath
	tcfg := tflags.Config()
	benches := []string{*bench}
	if *bench == "all" {
		benches = trace.Names()
	}
	opts := make([]core.Options, len(benches))
	for i, b := range benches {
		opts[i] = core.Options{
			DesignID: *design, Policy: p, Mode: m, Router: *routerName,
			Benchmark: b, Accesses: *n, Seed: *seed,
			CPU:       cpu.Config{Window: *window, BlockingProb: *blocking},
			Telemetry: tcfg,
			Cores:     *cores,
		}
	}
	results, rep, err := core.NewEngine(workers).RunAll(opts)
	fatal(err)
	for i, r := range results {
		fmt.Printf("design %s  %s+%s  %s  (%d accesses, seed %d)  [%.2fs]\n",
			*design, m, p, benches[i], *n, *seed, rep.PerRun[i].Seconds())
		fmt.Printf("  IPC            %.4f (perfect-L2 %.2f)\n", r.IPC, r.PerfectIPC)
		fmt.Printf("  avg latency    %.1f cycles (hit %.1f, miss %.1f)\n",
			r.AvgLatency, r.AvgHit, r.AvgMiss)
		fmt.Printf("  latency pct    p50 %d  p90 %d  p99 %d  max %d\n",
			r.Latency.Percentile(0.50), r.Latency.Percentile(0.90),
			r.Latency.Percentile(0.99), r.Latency.MaxLat)
		fmt.Printf("  hit rate       %.1f%% (%.1f%% of hits at the MRU bank)\n",
			100*r.HitRate, 100*r.MRUHitShare)
		fmt.Printf("  latency split  bank %.1f%% / network %.1f%% / memory %.1f%%\n",
			100*r.BankShare, 100*r.NetworkShare, 100*r.MemShare)
		fmt.Printf("  traffic        %d packets, %d flits, %d replicas (%d blocked cycles)\n",
			r.Network.PacketsInjected, r.Network.FlitsInjected,
			r.Network.Router.ReplicasSpawned, r.Network.Router.ReplicaBlocked)
		fmt.Printf("  memory         %d reads, %d writebacks\n",
			r.Memory.Reads, r.Memory.WriteBacks)
		fmt.Printf("  bank accesses  %d\n", r.BankAccesses)
		for _, cr := range r.Cores {
			fmt.Printf("  core %-2d        ipc %.4f  avg lat %.1f  hit %.1f%%  remote %.1f%%  (%d cycles)\n",
				cr.Core, cr.IPC, cr.AvgLatency, 100*cr.HitRate, 100*cr.RemoteShare, cr.Cycles)
		}
		if d := r.Directory; d != nil {
			fmt.Printf("  directory      %d owners, %d self-evictions, %d cross-evictions\n",
				len(d.Owners), d.SelfDrops, d.CrossDrops)
		}
		if tel := r.Telemetry; tel != nil {
			if tel.Heat != nil {
				tel.Heat.Render(os.Stdout)
			}
			if tel.Series != nil {
				tel.Series.Render(os.Stdout)
			}
		}
	}
	if *traceOut != "" {
		fatal(cliutil.WriteTraces(*traceOut, results))
	}
	if len(results) > 1 {
		agg := core.AggregateOf(results)
		fmt.Printf("aggregate over %d runs (%d accesses)\n", agg.Runs, agg.Accesses)
		fmt.Printf("  avg latency    %.1f cycles (hit %.1f, miss %.1f), hit rate %.1f%%\n",
			agg.Latency.Avg(), agg.Latency.AvgHit(), agg.Latency.AvgMiss(),
			100*agg.Latency.HitRate())
		fmt.Printf("  latency pct    p50 %d  p90 %d  p99 %d  max %d  (merged histogram)\n",
			agg.Latency.Percentile(0.50), agg.Latency.Percentile(0.90),
			agg.Latency.Percentile(0.99), agg.Latency.MaxLat)
		fmt.Printf("  traffic        %d packets, %d flits; memory %d reads, %d writebacks\n",
			agg.Network.PacketsInjected, agg.Network.FlitsInjected, agg.MemReads, agg.MemWB)
		fmt.Printf("[%d runs, j=%d: wall %.1fs, work %.1fs, speedup %.1fx]\n",
			rep.Runs, rep.Workers, rep.Wall.Seconds(), rep.Work.Seconds(), rep.Speedup())
	}
}

// verifyRouting runs the static verifier over every design in the
// catalogue (Table 3's A-F plus the extra registered families) and
// reports one line per design: the channel-dependence deadlock check for
// buffered engines, the productive-route livelock check when engineName
// resolves to a deflecting engine. Returns a process exit code.
func verifyRouting(w io.Writer, engineName string) int {
	eng, err := router.ByName(engineName)
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	property := "deadlock-free"
	if eng.Deflecting {
		property = "livelock-free"
	}
	code := 0
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		topo, err := d.Build()
		if err != nil {
			fmt.Fprintf(w, "design %s  BUILD FAILED  %v\n", d.ID, err)
			code = 1
			continue
		}
		alg, err := routing.For(topo)
		if err != nil {
			fmt.Fprintf(w, "design %s  NO ALGORITHM  %v\n", d.ID, err)
			code = 1
			continue
		}
		if eng.Deflecting {
			err = routing.VerifyDeflectionLivelockFree(topo, alg, eng.AgeMonotone)
		} else {
			err = routing.VerifyDeadlockFree(topo, alg)
		}
		if err != nil {
			fmt.Fprintf(w, "design %s  REJECTED  %v\n", d.ID, err)
			code = 1
			continue
		}
		fmt.Fprintf(w, "design %s  %s  (%s engine %s over %s, %d routers, %d links)\n",
			d.ID, property, alg.Name(), eng.Name, topo.Name, topo.NumNodes(), topo.CountLinks())
	}
	return code
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nucasim:", err)
		os.Exit(1)
	}
}
