package core

import (
	"fmt"
	"io"

	"nucanet/internal/area"
	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/mem"
)

// This file renders every built-in experiment's table (the exp_*.golden
// files pin the bytes) and registers the built-ins in the paper's
// presentation order. The sweep experiments render straight from their
// runs: a render function over the []Result that sweepExperiment hands
// it, paired with a job-list function in experiments.go.

// schemeLabel names the scheme a single-scheme experiment actually ran
// under (the -policy/-mode override, or the paper default).
func schemeLabel(cfg ExpConfig) string {
	p, m := cfg.PolicyName, cfg.ModeName
	if p == "" {
		p = "fastLRU"
	}
	if m == "" {
		m = "multicast"
	}
	return m + "+" + p
}

// Table1Rows renders the static system parameters of Table 1.
type Table1Rows struct{}

func (Table1Rows) Render(w io.Writer) {
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

// Table2Rows renders the generator self-check against Table 2.
type Table2Rows []Table2Row

func (rows Table2Rows) Render(w io.Writer) {
	fmt.Fprintln(w, "name     instr   perfIPC  reads(M) writes(M)  acc/instr | gen acc/instr  gen wr%   gen hit% (16-way LRU)")
	for _, row := range rows {
		p := row.Profile
		fmt.Fprintf(w, "%-8s %5.2gB  %5.2f   %8.3f %8.3f   %8.3f | %12.4f  %6.1f%%  %6.1f%%\n",
			p.Name, float64(p.InstrTotal)/1e9, p.PerfectIPC, p.ReadsM, p.WritesM,
			p.AccPerInstr, row.GenAccPerInst, 100*row.GenWriteFrac, 100*row.GenHitRate16)
	}
}

// Table3Rows renders the design catalogue of Table 3.
type Table3Rows []config.Design

func (rows Table3Rows) Render(w io.Writer) {
	for _, d := range rows {
		fmt.Fprintf(w, "  %s: %-55s banks/column: %v\n", d.ID, d.Description, d.Banks)
	}
}

// Table4Rows renders the area analysis of Table 4.
type Table4Rows []area.Report

func (rows Table4Rows) Render(w io.Writer) {
	fmt.Fprintln(w, "design   bank%   router%   link%     L2 mm2    chip mm2")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s     %5.1f     %5.1f   %5.1f   %8.2f   %9.2f\n",
			r.DesignID, r.BankPct(), r.RouterPct(), r.LinkPct(), r.L2MM2(), r.ChipMM2)
	}
	fmt.Fprintln(w, "paper:  A 47.8/20.8/31.4 567.70/567.70 | B 58.4/13.0/28.6 464.60/521.99")
	fmt.Fprintln(w, "        E 67.5/14.1/18.4 402.30/1602.22 | F 78.7/5.7/15.7 312.19/517.61")
}

// renderFig7 prints the latency-split bars of Figure 7.
func renderFig7(w io.Writer, _ ExpConfig, runs []Result) {
	fmt.Fprintln(w, "benchmark   bank%   network%   memory%     p50     p99")
	var b, nw, m float64
	for _, r := range runs {
		bank, net, mem := 100*r.BankShare, 100*r.NetworkShare, 100*r.MemShare
		fmt.Fprintf(w, "  %-9s %5.1f      %5.1f     %5.1f   %5d   %5d\n",
			r.Options.Benchmark, bank, net, mem, r.Latency.Percentile(0.50), r.Latency.Percentile(0.99))
		b += bank
		nw += net
		m += mem
	}
	k := float64(len(runs))
	fmt.Fprintf(w, "  %-9s %5.1f      %5.1f     %5.1f   (paper avg: 25 / 65 / 10)\n",
		"avg", b/k, nw/k, m/k)
}

// renderFig8 prints the scheme comparison of Figure 8: one line per
// benchmark (fig8Jobs runs benchmark major, one run per scheme), then
// the summary ratios the paper quotes.
func renderFig8(w io.Writer, _ ExpConfig, runs []Result) {
	schemes := Fig8Schemes()
	fmt.Fprintln(w, "(a) average / (b) hit / (c) miss latency in cycles; IPC")
	fmt.Fprintf(w, "%-9s", "benchmark")
	for _, s := range schemes {
		fmt.Fprintf(w, " | %-19s", s.Name)
	}
	fmt.Fprintln(w)
	for i, r := range runs {
		if i%len(schemes) == 0 {
			fmt.Fprintf(w, "%-9s", r.Options.Benchmark)
		}
		fmt.Fprintf(w, " | %5.1f %5.1f %6.1f", r.AvgLatency, r.AvgHit, r.AvgMiss)
		if i%len(schemes) == len(schemes)-1 {
			fmt.Fprintln(w)
		}
	}
	// Two readings: the CPU-visible access latency (request -> data) and
	// the column occupancy (request -> replacement complete); the paper's
	// hop-count examples (Fig. 2: 21 vs 12 hops) count the full occupancy,
	// which is where Fast-LRU's structural win lives at any load level.
	// Averages sum in benchmark order.
	avgOf := func(scheme string, occ bool) float64 {
		var s float64
		for i, r := range runs {
			if schemes[i%len(schemes)].Name != scheme {
				continue
			}
			if occ {
				s += r.AvgOccupancy
			} else {
				s += r.AvgLatency
			}
		}
		return s / float64(len(runs)/len(schemes))
	}
	uLRU, uFast := avgOf("unicast+LRU", false), avgOf("unicast+fastLRU", false)
	mPromo, mFast := avgOf("multicast+promotion", false), avgOf("multicast+fastLRU", false)
	uLRUo, uFasto := avgOf("unicast+LRU", true), avgOf("unicast+fastLRU", true)
	mFasto := avgOf("multicast+fastLRU", true)
	fmt.Fprintf(w, "\naccess latency (request->data):\n")
	fmt.Fprintf(w, "  multicast fastLRU vs unicast LRU:       %+.1f%%\n", 100*(mFast-uLRU)/uLRU)
	fmt.Fprintf(w, "  multicast fastLRU vs multicast promo:   %+.1f%%\n", 100*(mFast-mPromo)/mPromo)
	fmt.Fprintf(w, "  unicast fastLRU vs unicast LRU:         %+.1f%%\n", 100*(uFast-uLRU)/uLRU)
	fmt.Fprintf(w, "column occupancy (request->replacement done; the paper's hop metric):\n")
	fmt.Fprintf(w, "  multicast fastLRU vs unicast LRU:       %+.1f%% (paper -46%%)\n", 100*(mFasto-uLRUo)/uLRUo)
	fmt.Fprintf(w, "  unicast fastLRU vs unicast LRU:         %+.1f%% (paper -30%%)\n",
		100*(uFasto-uLRUo)/uLRUo)
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
	sums := map[string]float64{}
	p50s := map[string]int64{}
	p99s := map[string]int64{}
	count := 0
	var cur string
	var baseIPC float64
	for _, r := range runs {
		if r.Options.Benchmark != cur {
			if cur != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%-9s", r.Options.Benchmark)
			cur = r.Options.Benchmark
			count++
		}
		// Each benchmark's block leads with Design A: its IPC is the
		// block's base.
		if r.Design.ID == "A" {
			baseIPC = r.IPC
		}
		norm := r.IPC / baseIPC
		fmt.Fprintf(w, " %5.3f", norm)
		sums[r.Design.ID] += norm
		p50s[r.Design.ID] += r.Latency.Percentile(0.50)
		p99s[r.Design.ID] += r.Latency.Percentile(0.99)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-9s", "avg")
	for _, d := range config.Designs() {
		fmt.Fprintf(w, " %5.3f", sums[d.ID]/float64(count))
	}
	fmt.Fprintln(w, "\n(paper avgs: A 1.00, B ~1.00, C 0.86, D 0.88, E 1.12, F 1.13)")
	// Per-design access-latency percentiles averaged over the benchmarks
	// (mean of the per-run percentile estimates, not the percentile of a
	// pooled distribution).
	k := int64(count)
	fmt.Fprintf(w, "%-9s", "p50 avg")
	for _, d := range config.Designs() {
		fmt.Fprintf(w, " %5d", p50s[d.ID]/k)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-9s", "p99 avg")
	for _, d := range config.Designs() {
		fmt.Fprintf(w, " %5d", p99s[d.ID]/k)
	}
	fmt.Fprintln(w)
}

// Render prints the recomputed abstract claims.
func (h Headline) Render(w io.Writer) {
	fmt.Fprintf(w, "halo+fastLRU IPC vs mesh+multicast-promotion: %+.1f%%  (paper +38%%)\n",
		100*(h.IPCGainVsMeshPromotion-1))
	fmt.Fprintf(w, "multicast fastLRU IPC vs multicast promotion: %+.1f%%  (paper +20%%)\n",
		100*(h.FastLRUIPCGain-1))
	fmt.Fprintf(w, "halo (F) IPC vs mesh (A), same policy:        %+.1f%%  (paper +18%%/+13%%)\n",
		100*(h.HaloIPCGain-1))
	fmt.Fprintf(w, "interconnect area, F as a share of A:          %.1f%%  (paper 23%%)\n",
		100*h.InterconnectAreaRatio)
}

// renderEnergy prints the per-design energy comparison, captioned with
// the benchmark and scheme the runs measured.
func renderEnergy(w io.Writer, cfg ExpConfig, runs []Result) {
	fmt.Fprintf(w, "design    nJ/access   network%%   banks%%   memory%%     IPC   (%s, %s)\n", cfg.bench(), schemeLabel(cfg))
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

// ParetoRows renders the router/design/scheme cost-performance sweep.
type ParetoRows []ParetoPoint

func (rows ParetoRows) Render(w io.Writer) {
	fmt.Fprintln(w, "   router        design  scheme                 L2 mm2   net mm2   avg lat   nJ/acc     IPC")
	for _, p := range rows {
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
// access (from the directory policy's ownership matrix) — then the
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

func init() {
	RegisterExperiment(Experiment{
		Name: "t1", About: "Table 1 system parameters (bank latencies, memory, router)",
		Title: staticTitle("Table 1: system parameters"), InAll: true,
		Run: func(ExpConfig) (Rows, SweepReport, error) { return Table1Rows{}, SweepReport{}, nil },
	})
	RegisterExperiment(Experiment{
		Name: "t2", About: "Table 2 benchmark profiles vs generator self-check",
		Title: staticTitle("Table 2: benchmarks (profile vs generator self-check)"), InAll: true,
		Run: func(cfg ExpConfig) (Rows, SweepReport, error) {
			return Table2Rows(Table2Check(40000, cfg.Seed)), SweepReport{}, nil
		},
	})
	RegisterExperiment(Experiment{
		Name: "t3", About: "Table 3 network design catalogue",
		Title: staticTitle("Table 3: network designs"), InAll: true,
		Run: func(ExpConfig) (Rows, SweepReport, error) {
			return Table3Rows(config.Designs()), SweepReport{}, nil
		},
	})
	RegisterExperiment(Experiment{
		Name: "t4", About: "Table 4 area analysis (cacti-lite model)",
		Title: staticTitle("Table 4: area analysis (cacti-lite model)"), InAll: true,
		Run: func(ExpConfig) (Rows, SweepReport, error) {
			reps, err := Table4()
			return Table4Rows(reps), SweepReport{}, err
		},
	})
	RegisterExperiment(Experiment{
		Name: "f7", About: "Figure 7 latency split of the unicast LRU baseline",
		Title: staticTitle("Figure 7: L2 access latency split, unicast LRU, Design A"), InAll: true,
		Run: sweepExperiment(fig7Jobs, renderFig7),
	})
	RegisterExperiment(Experiment{
		Name: "f8", About: "Figure 8 access latency across the five replacement schemes",
		Title: staticTitle("Figure 8: access latency by scheme, Design A"), InAll: true,
		Run: sweepExperiment(fig8Jobs, renderFig8),
	})
	RegisterExperiment(Experiment{
		Name: "f9", About: "Figure 9 normalized IPC across designs A-F",
		Title: func(cfg ExpConfig) string { return "Figure 9: normalized IPC by design, " + schemeLabel(cfg) },
		InAll: true,
		Run:   sweepExperiment(fig9Jobs, renderFig9),
	})
	RegisterExperiment(Experiment{
		Name: "headline", About: "abstract's headline claims, recomputed",
		Title: staticTitle("Headline claims (abstract)"), InAll: true,
		Run: func(cfg ExpConfig) (Rows, SweepReport, error) {
			h, rep, err := ComputeHeadline(cfg)
			return h, rep, err
		},
	})
	RegisterExperiment(Experiment{
		Name: "energy", About: "per-design energy estimate (extension: the paper's stated future work)",
		Title: staticTitle("Energy comparison (extension: the paper's stated future work)"), InAll: true,
		Run: sweepExperiment(energyJobs, renderEnergy),
	})
	RegisterExperiment(Experiment{
		Name: "power", About: "power-gating sweep (extension: on-demand power control)",
		Title: staticTitle("Power-gating sweep (extension: the paper's on-demand power control)"), InAll: true,
		Run: sweepExperiment(powerJobs, renderPower),
	})
	RegisterExperiment(Experiment{
		Name: "pareto", About: "router engine x design x scheme cost/performance frontier",
		Title: func(cfg ExpConfig) string {
			return fmt.Sprintf("Pareto sweep: router engine x design x scheme (%s)", cfg.bench())
		},
		InAll: true,
		Run: func(cfg ExpConfig) (Rows, SweepReport, error) {
			pts, rep, err := ParetoSweep(cfg, cfg.bench())
			return ParetoRows(pts), rep, err
		},
	})
	RegisterExperiment(Experiment{
		Name: "telemetry", About: "cycle-level probe comparison of designs A, D, F",
		Title: func(cfg ExpConfig) string {
			return "Telemetry: spatial and temporal view, designs A / D / F on " + cfg.bench() + ", " + schemeLabel(cfg)
		},
		InAll: false, // runs when named or when probe flags are set
		Run:   sweepExperiment(telemetryJobs, renderTelemetry),
	})
	RegisterExperiment(Experiment{
		Name: "cmp", About: "sharing-contention sweep: 1-8 cores on the two-chiplet hierarchy (extension: the paper's CMP future work)",
		Title: func(cfg ExpConfig) string {
			return "CMP sharing contention: design H2 (mesh chiplets + bridge ring), " +
				cfg.bench() + ", directory policy, 1-8 cores"
		},
		InAll: false, // CMP fabric study; runs when named
		Run:   sweepExperiment(cmpJobs, renderCMP),
	})
}
