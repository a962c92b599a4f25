package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/telemetry"
)

func engineJobs(accesses int) []Options {
	var opts []Options
	for _, bench := range []string{"gcc", "art", "mcf"} {
		opts = append(opts, Options{
			DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast,
			Benchmark: bench, Accesses: accesses, Seed: 11,
		})
	}
	return opts
}

func TestEngineRunAllMatchesDirectRuns(t *testing.T) {
	opts := engineJobs(200)
	got, rep, err := NewEngine(4).RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != len(opts) || rep.Workers != 4 || len(rep.PerRun) != len(opts) {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	if rep.Work <= 0 || rep.Wall <= 0 {
		t.Fatalf("report did not account time: %+v", rep)
	}
	for i, opt := range opts {
		want, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].IPC != want.IPC || got[i].AvgLatency != want.AvgLatency ||
			got[i].Network != want.Network {
			t.Errorf("job %d (%s): engine result differs from direct Run", i, opt.Benchmark)
		}
	}
}

// TestEngineSweepAccounting pins the report's shape: one PerRun entry
// per run, and a Wall that spans preparation through the last result —
// so never shorter than the slowest single run.
func TestEngineSweepAccounting(t *testing.T) {
	opts := engineJobs(150)
	for _, workers := range []int{1, 3} {
		_, rep, err := NewEngine(workers).RunAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.PerRun) != rep.Runs || rep.Runs != len(opts) {
			t.Fatalf("workers=%d: %d PerRun entries for %d runs", workers, len(rep.PerRun), rep.Runs)
		}
		var sum time.Duration
		for i, d := range rep.PerRun {
			if rep.Wall < d {
				t.Errorf("workers=%d: wall %v shorter than run %d's %v", workers, rep.Wall, i, d)
			}
			sum += d
		}
		if rep.Work <= sum {
			t.Errorf("workers=%d: work %v does not include preparation on top of the runs' %v", workers, rep.Work, sum)
		}
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	opts := engineJobs(100)
	opts[1].Benchmark = "no-such-benchmark"
	for _, workers := range []int{1, 4} {
		_, _, err := NewEngine(workers).RunAll(opts)
		if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
			t.Errorf("workers=%d: err = %v, want the bad-benchmark error", workers, err)
		}
	}
}

// bitIdentityBatch builds the bit-identity table: designs x policies x
// router engines, skipping pairs the static gates reject (that rejection
// is pinned elsewhere; here we only compare successful runs).
func bitIdentityBatch(t *testing.T, accesses int) []Options {
	t.Helper()
	var opts []Options
	for _, designID := range []string{"A", "F", "R"} {
		for _, policy := range []cache.Policy{cache.FastLRU, cache.Promotion, cache.LRU} {
			for _, engine := range []string{"", "bufferless", "ring-lite"} {
				opt := DefaultOptions()
				opt.DesignID = designID
				opt.Policy = policy
				opt.Router = engine
				opt.Accesses = accesses
				if _, err := Prepare(opt, nil); err != nil {
					continue // engine does not support this topology
				}
				opts = append(opts, opt)
			}
		}
	}
	if len(opts) < 9 {
		t.Fatalf("only %d valid (design, policy, engine) combos; expected at least 9", len(opts))
	}
	return opts
}

// TestEngineBitIdentity is the batch path's core contract: shared
// preparation, warm-image cloning and per-worker arena reuse return
// results bit-identical to independent Run calls, across designs x
// policies x router engines, at any worker count, in submission order.
func TestEngineBitIdentity(t *testing.T) {
	accesses := 300
	if testing.Short() {
		accesses = 150
	}
	opts := bitIdentityBatch(t, accesses)
	want := make([]Result, len(opts))
	for i, opt := range opts {
		var err error
		if want[i], err = Run(opt); err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
	}
	for _, workers := range []int{1, 4} {
		got, rep, err := NewEngine(workers).RunAll(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Runs != len(opts) {
			t.Fatalf("workers=%d: report runs = %d, want %d", workers, rep.Runs, len(opts))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d lane %d (%s/%v/%q): batch result differs from Run",
					workers, i, opts[i].DesignID, opts[i].Policy, opts[i].Router)
			}
		}
	}
}

// TestEngineSharedArtifacts pins that sharing actually happens: lanes of
// one design reuse one topology, routing table and warm image.
func TestEngineSharedArtifacts(t *testing.T) {
	pc := NewPrepCache()
	opt := DefaultOptions()
	opt.DesignID = "F"
	opt.Accesses = 100
	a1, err := Prepare(opt, pc)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Prepare(opt, pc)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Topo != a2.Topo {
		t.Error("same design prepared twice did not share the topology")
	}
	if a1.Table != a2.Table {
		t.Error("same design prepared twice did not share the routing table")
	}
	if a1.WarmImg == nil || a1.WarmImg != a2.WarmImg {
		t.Error("same design+trace prepared twice did not share one warm image")
	}
	// A different design does not share the topology.
	opt2 := opt
	opt2.DesignID = "D"
	a3, err := Prepare(opt2, pc)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Topo == a1.Topo {
		t.Error("distinct designs share a topology")
	}
	// A catalogue design is gated once per process: runs without a
	// PrepCache share its topology and table too.
	n1, n2 := mustPrepare(t, opt, nil), mustPrepare(t, opt, nil)
	if n1.Topo != a1.Topo || n2.Topo != a1.Topo || n1.Table != a1.Table || n2.Table != a1.Table {
		t.Error("catalogue design prepared without a PrepCache did not share its topology and table")
	}
	// An ad-hoc design is gated once per PrepCache: two lanes share its
	// artifacts, and another PrepCache gates it afresh.
	d, err := config.DesignByID("F")
	if err != nil {
		t.Fatal(err)
	}
	adHoc := opt
	adHoc.Design = &d
	l1, l2 := mustPrepare(t, adHoc, pc), mustPrepare(t, adHoc, pc)
	if l1.Topo != l2.Topo || l1.Table != l2.Table {
		t.Error("ad-hoc design's lanes in one PrepCache did not share the topology and table")
	}
	if other := mustPrepare(t, adHoc, NewPrepCache()); other.Topo == l1.Topo {
		t.Error("ad-hoc design's topology outlived its PrepCache")
	}
}

// TestEngineProbedLaneInMixedBatch pins that probe-carrying lanes need no
// separate path: inside a batch of plain lanes — cloned warm image,
// recycled arena — a probed lane returns a Result DeepEqual to Run's,
// with byte-identical trace JSONL, heatmap and time series, on a mesh,
// a halo and a ring.
func TestEngineProbedLaneInMixedBatch(t *testing.T) {
	for _, designID := range []string{"A", "F", "R"} {
		plain := DefaultOptions()
		plain.DesignID = designID
		plain.Accesses = 200
		probed := plain
		probed.Telemetry = telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}

		got, _, err := NewEngine(2).RunAll([]Options{plain, probed, plain})
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Telemetry != nil || got[2].Telemetry != nil {
			t.Errorf("design %s: plain lanes grew telemetry", designID)
		}
		want, err := Run(probed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[1], want) {
			t.Errorf("design %s: probed lane's Result differs from Run's", designID)
		}
		if !bytes.Equal(telemetryFingerprint(t, got[1:2]), telemetryFingerprint(t, []Result{want})) {
			t.Errorf("design %s: probed lane's telemetry differs from Run's", designID)
		}
	}
}

// TestEngineErrorLowestIndex pins the batch's error order: preparation
// errors surface first, lowest index first; with every lane prepared,
// the lowest-index failing lane's error is returned.
func TestEngineErrorLowestIndex(t *testing.T) {
	ok := DefaultOptions()
	ok.Accesses = 100
	bad := ok
	bad.Benchmark = "no-such-benchmark"
	worse := ok
	worse.DesignID = "no-such-design"
	_, _, err := NewEngine(0).RunAll([]Options{ok, bad, worse, ok})
	if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Fatalf("err = %v, want lane 1's bad-benchmark error", err)
	}
}

// TestEngineEmpty pins the trivial batch.
func TestEngineEmpty(t *testing.T) {
	got, rep, err := NewEngine(0).RunAll(nil)
	if err != nil || len(got) != 0 || rep.Runs != 0 {
		t.Fatalf("empty batch: got %v, %+v, %v", got, rep, err)
	}
}

// optimizerBatch models the workload batch preparation exists for: one
// optimizer wave of candidate placements, each scored on a small
// benchmark mix with short screening runs (cmd/nucaopt screens every
// mutation this way before re-scoring survivors with long runs). 16
// candidates (design D with the core/mem column swept across the die) x
// 4 benchmarks = 64 lanes; lanes of one candidate share its topology and
// routing table, lanes of one benchmark share the access stream, warm
// table, and warm image.
func optimizerBatch(b *testing.B, accesses int) []Options {
	b.Helper()
	base, err := config.DesignByID("D")
	if err != nil {
		b.Fatal(err)
	}
	var opts []Options
	for cx := 0; cx < 16; cx++ {
		d := base
		d.ID = "D*"
		d.Params.CoreX = cx
		d.Params.MemX = cx
		for _, bench := range []string{"gcc", "mcf", "art", "apsi"} {
			opt := DefaultOptions()
			opt.DesignID = d.ID
			opt.Design = &d
			opt.Benchmark = bench
			opt.Accesses = accesses
			opts = append(opts, opt)
		}
	}
	return opts
}

// BenchmarkEngineWave measures one 64-lane x 150-access optimizer
// screening wave through Engine.RunAll — the optimizer's hot loop. The
// runs/s metric is completed simulations per second of wall clock.
func BenchmarkEngineWave(b *testing.B) {
	opts := optimizerBatch(b, 150)
	eng := NewEngine(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.RunAll(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(opts)*b.N)/b.Elapsed().Seconds(), "runs/s")
}

func TestEngineWorkerDefaults(t *testing.T) {
	if w := NewEngine(0).workers; w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
	if w := NewEngine(3).workers; w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
}

func TestSweepReportSpeedup(t *testing.T) {
	r := SweepReport{Wall: 2e9, Work: 6e9}
	if s := r.Speedup(); s < 2.9 || s > 3.1 {
		t.Errorf("speedup = %v, want 3", s)
	}
	if s := (SweepReport{}).Speedup(); s != 1 {
		t.Errorf("zero-wall speedup = %v, want 1", s)
	}
}

// TestAggregateCountsEveryCore: a CMP run simulates Accesses on every
// core, and the aggregate counts them all, as its latency record does.
func TestAggregateCountsEveryCore(t *testing.T) {
	for _, cores := range []int{0, 4} {
		opt := cmpOpts("H2", cores, 200)
		opt.Policy = cache.Directory
		r, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		agg := AggregateOf([]Result{r, r})
		if want := int64(2 * 200 * max(cores, 1)); agg.Accesses != want || agg.Latency.Count != want {
			t.Errorf("%d cores: aggregate of two runs counts %d accesses and %d latencies, want %d",
				cores, agg.Accesses, agg.Latency.Count, want)
		}
	}
}

// TestAggregateMergeOrderInvariance pins the property that lets the
// engine combine run statistics in submission order while workers finish
// in any order: the merged aggregate is independent of merge order.
func TestAggregateMergeOrderInvariance(t *testing.T) {
	rs, _, err := NewEngine(0).RunAll(engineJobs(200))
	if err != nil {
		t.Fatal(err)
	}
	fwd := AggregateOf(rs)
	rev := Aggregate{}
	for i := len(rs) - 1; i >= 0; i-- {
		rev.Add(rs[i])
	}
	fa := fmt.Sprintf("%v %v %+v ways=%v", fwd.Runs, fwd.Latency.String(), fwd.Network, fwd.Latency.HitWays())
	fb := fmt.Sprintf("%v %v %+v ways=%v", rev.Runs, rev.Latency.String(), rev.Network, rev.Latency.HitWays())
	if fa != fb {
		t.Errorf("aggregate depends on merge order:\nfwd: %s\nrev: %s", fa, fb)
	}
	if fwd.Runs != 3 || fwd.Latency.Count == 0 || fwd.Network.FlitsInjected == 0 {
		t.Errorf("aggregate empty: %+v", fwd)
	}
	// The merged accumulator must equal the sum of its parts.
	var wantCount, wantSum int64
	for _, r := range rs {
		wantCount += r.Latency.Count
		wantSum += r.Latency.Sum
	}
	if fwd.Latency.Count != wantCount || fwd.Latency.Sum != wantSum {
		t.Errorf("merged latency %d/%d, want %d/%d",
			fwd.Latency.Count, fwd.Latency.Sum, wantCount, wantSum)
	}
}
