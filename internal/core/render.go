package core

import (
	"fmt"
	"io"

	"nucanet/internal/area"
	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/mem"
	"nucanet/internal/trace"
)

// This file renders every built-in experiment's table (the exp_*.golden
// files pin the bytes); the experiments table lists them in the paper's
// presentation order. Every renderer prints straight from the runs of
// its row's job list (experiments.go), the []Result Experiment.Run hands
// it; the static tables have no jobs and read their models directly.

// renderTable1 prints the static system parameters of Table 1.
func renderTable1(w io.Writer, _ ExpConfig, _ []Result) {
	fmt.Fprintln(w, "memory: block 64B; latency 130 cycles + 4 cycles per 8B (pipelined)")
	fmt.Fprintln(w, "router: 4-flit buffers, 4 VCs per PC, 128-bit flits, 1 cycle per stage")
	fmt.Fprintln(w, "bank size    wire delay   tag only   tag+replacement")
	for _, kb := range []int{64, 128, 256, 512} {
		l := bank.LatencyFor(kb)
		fmt.Fprintf(w, "  %4d KB     %d cycle(s)   %d cycles   %d cycles\n",
			kb, l.Wire, l.TagOnly, l.TagRepl)
	}
	c := mem.DefaultConfig()
	fmt.Fprintf(w, "derived: 64B block read = %d cycles at the pins\n", c.ReadLatency())
}

// renderTable2 prints the generator self-check against Table 2.
func renderTable2(w io.Writer, cfg ExpConfig, _ []Result) {
	fmt.Fprintln(w, "name     instr   perfIPC  reads(M) writes(M)  acc/instr | gen acc/instr  gen wr%   gen hit% (16-way LRU)")
	for _, row := range Table2Check(40000, cfg.Seed) {
		p := row.Profile
		fmt.Fprintf(w, "%-8s %5.2gB  %5.2f   %8.3f %8.3f   %8.3f | %12.4f  %6.1f%%  %6.1f%%\n",
			p.Name, float64(p.InstrTotal)/1e9, p.PerfectIPC, p.ReadsM, p.WritesM,
			p.AccPerInstr, row.GenAccPerInst, 100*row.GenWriteFrac, 100*row.GenHitRate16)
	}
}

// renderTable3 prints the design catalogue of Table 3.
func renderTable3(w io.Writer, _ ExpConfig, _ []Result) {
	for _, d := range config.Designs() {
		fmt.Fprintf(w, "  %s: %-55s banks/column: %v\n", d.ID, d.Description, d.Banks)
	}
}

// renderTable4 prints the area analysis of Table 4 next to the paper's.
func renderTable4(w io.Writer, _ ExpConfig, _ []Result) {
	reps, _ := area.Table4(area.DefaultModel()) // the built-in designs always analyze
	fmt.Fprintln(w, "design   bank%   router%   link%     L2 mm2    chip mm2")
	for _, r := range reps {
		fmt.Fprintf(w, "  %s     %5.1f     %5.1f   %5.1f   %8.2f   %9.2f\n",
			r.DesignID, r.BankPct(), r.RouterPct(), r.LinkPct(), r.L2MM2(), r.ChipMM2)
	}
	fmt.Fprintln(w, "paper:  A 47.8/20.8/31.4 567.70/567.70 | B 58.4/13.0/28.6 464.60/521.99")
	fmt.Fprintln(w, "        E 67.5/14.1/18.4 402.30/1602.22 | F 78.7/5.7/15.7 312.19/517.61")
}

// renderFig7 prints the latency-split bars of Figure 7.
func renderFig7(w io.Writer, _ ExpConfig, runs []Result) {
	fmt.Fprintln(w, "benchmark   bank%   network%   memory%     p50     p99")
	for _, r := range runs {
		fmt.Fprintf(w, "  %-9s %5.1f      %5.1f     %5.1f   %5d   %5d\n", r.Options.Benchmark,
			100*r.BankShare, 100*r.NetworkShare, 100*r.MemShare, r.Latency.Percentile(0.50), r.Latency.Percentile(0.99))
	}
	cs := claimsOf("f7/")
	fmt.Fprintf(w, "  %-9s %s      %s     %s   %s\n", cs[0].label, cs[0].show(runs), cs[1].show(runs), cs[2].show(runs),
		paperNote(cs[0].label+": ", " / ", cs[0].paper, cs[1].paper, cs[2].paper))
}

// renderFig8 prints the scheme comparison of Figure 8: one line per
// benchmark, one column per scheme, then the summary claims.
func renderFig8(w io.Writer, _ ExpConfig, runs []Result) {
	fmt.Fprintln(w, "(a) average / (b) hit / (c) miss latency in cycles; IPC")
	fmt.Fprintf(w, "%-9s", "benchmark")
	for _, c := range fig8Cells {
		fmt.Fprintf(w, " | %-19s", c.scheme())
	}
	fmt.Fprintln(w)
	for _, b := range trace.Names() {
		fmt.Fprintf(w, "%-9s", b)
		for _, c := range fig8Cells {
			r := c.of(runs, b)
			fmt.Fprintf(w, " | %5.1f %5.1f %6.1f", r.AvgLatency, r.AvgHit, r.AvgMiss)
		}
		fmt.Fprintln(w)
	}
	// Two readings: the CPU-visible access latency (request -> data) and
	// the column occupancy (request -> replacement complete); the paper's
	// hop-count examples (Fig. 2: 21 vs 12 hops) count the full occupancy,
	// which is where Fast-LRU's structural win lives at any load level.
	fmt.Fprintf(w, "\naccess latency (request->data):\n")
	printClaimLines(w, claimsOf("f8/latency/"), runs)
	fmt.Fprintf(w, "column occupancy (request->replacement done; the paper's hop metric):\n")
	printClaimLines(w, claimsOf("f8/occupancy/"), runs)
}

// printClaimLines prints one Figure 8 summary line per claim.
func printClaimLines(w io.Writer, cs []claim, runs []Result) {
	for _, c := range cs {
		fmt.Fprintf(w, "  %-40s%s", c.label, c.show(runs))
		if c.paper != "" {
			fmt.Fprint(w, " "+paperNote("", "", c.paper))
		}
		fmt.Fprintln(w)
	}
}

// renderFig9 prints the normalized-IPC matrix of Figure 9: each
// benchmark's IPCs relative to Design A on the same benchmark, plus the
// tail view the averages hide — halo designs shorten the tail, not just
// the mean.
func renderFig9(w io.Writer, _ ExpConfig, runs []Result) {
	fmt.Fprintf(w, "%-9s", "benchmark")
	for _, d := range config.Designs() {
		fmt.Fprintf(w, "   %s  ", d.ID)
	}
	fmt.Fprintln(w)
	for _, b := range trace.Names() {
		fmt.Fprintf(w, "%-9s", b)
		for _, d := range config.Designs() {
			fmt.Fprintf(w, " %5.3f", normIPC(runs, fig9Run(runs, d.ID, b)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-9s", "avg")
	var notes []string
	for _, c := range claimsOf("f9/") {
		fmt.Fprintf(w, " %s", c.show(runs))
		notes = append(notes, c.label+" "+c.paper)
	}
	fmt.Fprintln(w, "\n"+paperNote("avgs: ", ", ", notes...))
	// Per-design access-latency percentiles averaged over the benchmarks
	// (mean of the per-run percentile estimates, not the percentile of a
	// pooled distribution).
	for _, q := range []float64{0.50, 0.99} {
		fmt.Fprintf(w, "%-9s", fmt.Sprintf("p%.0f avg", 100*q))
		for _, d := range config.Designs() {
			var sum int64
			for _, r := range runs {
				if r.Design.ID == d.ID {
					sum += r.Latency.Percentile(q)
				}
			}
			fmt.Fprintf(w, " %5d", sum/int64(len(trace.Names())))
		}
		fmt.Fprintln(w)
	}
}

// renderHeadline prints the abstract's claims, recomputed.
func renderHeadline(w io.Writer, _ ExpConfig, runs []Result) {
	for _, c := range claimsOf("headline/") {
		fmt.Fprintf(w, "%-45s %s  %s\n", c.label, c.show(runs), paperNote("", "", c.paper))
	}
}

// renderEnergy prints the per-design energy comparison, captioned with
// the benchmark and scheme the runs measured.
func renderEnergy(w io.Writer, cfg ExpConfig, runs []Result) {
	fmt.Fprintf(w, "design    nJ/access   network%%   banks%%   memory%%     IPC   (%s, %s)\n", cfg.bench(), cfg.cell("").scheme())
	for _, r := range runs {
		e := r.Energy
		fmt.Fprintf(w, "  %s       %7.2f      %5.1f    %5.1f     %5.1f   %5.3f\n",
			r.Design.ID, e.PerAccessNJ(), 100*e.NetworkShare(),
			100*e.BankPJ/e.TotalPJ(), 100*e.MemoryPJ/e.TotalPJ(), r.IPC)
	}
}

// renderPower prints the power-gating operating points: the banks kept
// powered per column and the capacity left come from each run's gated
// design.
func renderPower(w io.Writer, cfg ExpConfig, runs []Result) {
	fmt.Fprintf(w, "ways on   capacity   hit rate     IPC   nJ/access   (%s, Design A columns gated from the far end)\n", cfg.bench())
	for _, r := range runs {
		fmt.Fprintf(w, "   %2d      %5d KB    %5.1f%%   %5.3f     %7.2f\n",
			len(r.Design.Banks), r.Design.CapacityKB(), 100*r.HitRate, r.IPC, r.Energy.PerAccessNJ())
	}
}

// renderPareto prints the router/design/scheme cost-performance sweep.
func renderPareto(w io.Writer, cfg ExpConfig, runs []Result) {
	fmt.Fprintln(w, "   router        design  scheme                 L2 mm2   net mm2   avg lat   nJ/acc     IPC")
	for _, p := range paretoPoints(cfg, runs) {
		if p.Skipped != "" {
			fmt.Fprintf(w, "   %-13s %-7s %-21s skipped: %s\n", p.RouterName, p.DesignID, p.Scheme, p.Skipped)
			continue
		}
		mark := " "
		if p.Frontier {
			mark = "*"
		}
		fmt.Fprintf(w, " %s %-13s %-7s %-21s %7.1f   %7.2f   %7.1f   %6.2f   %5.3f\n",
			mark, p.RouterName, p.DesignID, p.Scheme,
			p.AreaMM2, p.NetMM2, p.AvgLat, p.EnergyNJ, p.IPC)
	}
	fmt.Fprintln(w, "('*' = on the area/latency/energy frontier: no point is better on all three axes)")
}

// renderTelemetry prints each design's latency summary and probe views.
func renderTelemetry(w io.Writer, _ ExpConfig, runs []Result) {
	for _, r := range runs {
		fmt.Fprintf(w, "-- design %s: IPC %.4f, avg latency %.1f, p50 %d, p99 %d, max %d\n",
			r.Design.ID, r.IPC, r.AvgLatency,
			r.Latency.Percentile(0.50), r.Latency.Percentile(0.99), r.Latency.MaxLat)
		if tel := r.Telemetry; tel != nil {
			if tel.Heat != nil {
				tel.Heat.Render(w)
			}
			if tel.Series != nil {
				tel.Series.Render(w)
			}
		}
	}
}

// renderCMP prints the sharing-contention table — aggregate and per-core
// throughput, the tail latency, the mean fraction of issues homed on
// another controller (the traffic the fabric and, on hierarchical
// designs, the bridge ring carries) and the fraction of capacity
// evictions where one core's block was pushed out by another core's
// access (from the directory policy's self/cross drop split) — then the
// largest run's link-traffic view.
func renderCMP(w io.Writer, _ ExpConfig, runs []Result) {
	fmt.Fprintf(w, "%5s %10s %10s %9s %8s %7s %8s %9s\n",
		"cores", "IPC", "IPC/core", "hit rate", "avg lat", "p99", "remote", "x-evict")
	for _, r := range runs {
		k := float64(len(r.Cores))
		var remote, crossDrop float64
		for _, c := range r.Cores {
			remote += c.RemoteShare / k
		}
		if d := r.Directory; d != nil && d.SelfDrops+d.CrossDrops > 0 {
			crossDrop = float64(d.CrossDrops) / float64(d.SelfDrops+d.CrossDrops)
		}
		fmt.Fprintf(w, "%5d %10.4f %10.4f %8.1f%% %8.1f %7d %7.0f%% %8.0f%%\n",
			r.Options.Cores, r.IPC, r.IPC/k, 100*r.HitRate, r.AvgLatency, r.Latency.Percentile(0.99),
			100*remote, 100*crossDrop)
	}
	last := runs[len(runs)-1]
	if tel := last.Telemetry; tel != nil && tel.Heat != nil {
		fmt.Fprintf(w, "\nlink heatmap, %d-core run (bridge-ring hops included):\n", last.Options.Cores)
		tel.Heat.RenderLinks(w, 16)
	}
}

func staticTitle(s string) func(ExpConfig) string {
	return func(ExpConfig) string { return s }
}
