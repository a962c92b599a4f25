package core

import (
	"fmt"
	"math"
	"strings"

	"nucanet/internal/area"
	"nucanet/internal/trace"
)

// claim is one number the paper prints, next to this reproduction's
// measurement of it. The claims table is the one place a paper value
// lives: the f7, f8, f9 and headline renderers print its rows and derive
// no ratio themselves. A measure finds the runs it compares by their
// Options and walks the benchmarks in Table 2 order, so its value does
// not depend on the order of a job list.
type claim struct {
	id      string // unique key "<exp>/<what>", led by the experiment that prints it
	label   string // what the table prints the claim under
	paper   string // the paper's value as printed; "" where it gives none
	verb    string // how the table prints the measured value
	measure func(runs []Result) float64
}

var claims = []claim{
	{"f7/bank", "avg", "25", "%5.1f", mean(meshLRU, func(r Result) float64 { return 100 * r.BankShare })},
	{"f7/network", "avg", "65", "%5.1f", mean(meshLRU, func(r Result) float64 { return 100 * r.NetworkShare })},
	{"f7/memory", "avg", "10", "%5.1f", mean(meshLRU, func(r Result) float64 { return 100 * r.MemShare })},
	{"f8/latency/mfast-ulru", "multicast fastLRU vs unicast LRU:", "", "%+.1f%%", change(mean(meshFast, latency), mean(meshLRU, latency))},
	{"f8/latency/mfast-mpromo", "multicast fastLRU vs multicast promo:", "", "%+.1f%%", change(mean(meshFast, latency), mean(meshPromo, latency))},
	{"f8/latency/ufast-ulru", "unicast fastLRU vs unicast LRU:", "", "%+.1f%%", change(mean(meshUFast, latency), mean(meshLRU, latency))},
	{"f8/occupancy/mfast-ulru", "multicast fastLRU vs unicast LRU:", "-46%", "%+.1f%%", change(mean(meshFast, occupancy), mean(meshLRU, occupancy))},
	{"f8/occupancy/ufast-ulru", "unicast fastLRU vs unicast LRU:", "-30%", "%+.1f%%", change(mean(meshUFast, occupancy), mean(meshLRU, occupancy))},
	{"f9/A", "A", "1.00", "%5.3f", fig9Mean("A")},
	{"f9/B", "B", "~1.00", "%5.3f", fig9Mean("B")},
	{"f9/C", "C", "0.86", "%5.3f", fig9Mean("C")},
	{"f9/D", "D", "0.88", "%5.3f", fig9Mean("D")},
	{"f9/E", "E", "1.12", "%5.3f", fig9Mean("E")},
	{"f9/F", "F", "1.13", "%5.3f", fig9Mean("F")},
	{"headline/halo-fast-vs-mesh-promo", "halo+fastLRU IPC vs mesh+multicast-promotion:", "+38%", "%+.1f%%", ipcGain(haloFast, meshPromo)},
	{"headline/fast-vs-promo", "multicast fastLRU IPC vs multicast promotion:", "+20%", "%+.1f%%", ipcGain(meshFast, meshPromo)},
	{"headline/halo-vs-mesh", "halo (F) IPC vs mesh (A), same policy:", "+18%/+13%", "%+.1f%%", ipcGain(haloFast, meshFast)},
	{"headline/area", "interconnect area, F as a share of A:", "23%", "%5.1f%%", areaShare},
}

// claimsOf lists the claims whose id starts with prefix, in table order.
func claimsOf(prefix string) []claim {
	var out []claim
	for _, c := range claims {
		if strings.HasPrefix(c.id, prefix) {
			out = append(out, c)
		}
	}
	return out
}

// show prints the claim's value measured over runs.
func (c claim) show(runs []Result) string { return fmt.Sprintf(c.verb, c.measure(runs)) }

// paperNote is the parenthesised paper text a table prints after its
// claims: head, then the parts joined by sep.
func paperNote(head, sep string, parts ...string) string {
	return "(paper " + head + strings.Join(parts, sep) + ")"
}

// find returns the run whose Options satisfy match. Claims and tables
// read only runs their own job list submits, so a miss is a bug.
func find(runs []Result, match func(Options) bool) Result {
	for _, r := range runs {
		if match(r.Options) {
			return r
		}
	}
	panic("core: no run of the sweep matches")
}

// of returns c's run on bench.
func (c cell) of(runs []Result, bench string) Result {
	return find(runs, func(o Options) bool {
		return o.DesignID == c.design && o.Policy == c.policy && o.Mode == c.mode && o.Benchmark == bench
	})
}

// benchMean averages f over the benchmarks in Table 2 order.
func benchMean(f func(bench string) float64) float64 {
	names := trace.Names()
	var s float64
	for _, b := range names {
		s += f(b)
	}
	return s / float64(len(names))
}

func latency(r Result) float64   { return r.AvgLatency }
func occupancy(r Result) float64 { return r.AvgOccupancy }

// mean is c's metric averaged over the benchmarks.
func mean(c cell, metric func(Result) float64) func([]Result) float64 {
	return func(runs []Result) float64 {
		return benchMean(func(b string) float64 { return metric(c.of(runs, b)) })
	}
}

// change is a's value relative to b's, in percent.
func change(a, b func([]Result) float64) func([]Result) float64 {
	return func(runs []Result) float64 {
		va, vb := a(runs), b(runs)
		return 100 * (va - vb) / vb
	}
}

// normIPC is r's IPC over Design A's on the same benchmark and scheme:
// one cell of Figure 9.
func normIPC(runs []Result, r Result) float64 {
	return r.IPC / cell{"A", r.Options.Policy, r.Options.Mode}.of(runs, r.Options.Benchmark).IPC
}

// fig9Run is design id's run on bench. Figure 9 runs one scheme, so
// design and benchmark pick the run.
func fig9Run(runs []Result, id, bench string) Result {
	return find(runs, func(o Options) bool { return o.DesignID == id && o.Benchmark == bench })
}

// fig9Mean is design id's normalised IPC averaged over the benchmarks.
func fig9Mean(id string) func([]Result) float64 {
	return func(runs []Result) float64 {
		return benchMean(func(b string) float64 { return normIPC(runs, fig9Run(runs, id, b)) })
	}
}

// ipcGain is a's IPC over b's, as a geometric mean over the benchmarks,
// in percent above 1.
func ipcGain(a, b cell) func([]Result) float64 {
	return func(runs []Result) float64 {
		names := trace.Names()
		p := 1.0
		for _, n := range names {
			p *= a.of(runs, n).IPC / b.of(runs, n).IPC
		}
		return 100 * (math.Pow(p, 1/float64(len(names))) - 1)
	}
}

// areaShare is Design F's interconnect area as a percentage of Design
// A's, from Table 4; it reads no run.
func areaShare([]Result) float64 {
	reps, _ := area.Table4(area.DefaultModel()) // the built-in designs always analyze
	net := map[string]float64{}
	for _, r := range reps {
		net[r.DesignID] = r.NetworkMM2()
	}
	return 100 * (net["F"] / net["A"])
}
