package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nucanet/internal/cache"
)

func cmpOpts(design string, cores, n int) Options {
	return Options{
		DesignID: design, Policy: cache.FastLRU, Mode: cache.Multicast,
		Benchmark: "gcc", Accesses: n, Seed: 9, Cores: cores,
	}
}

// TestCMPAnalyticGolden pins the refactor that replaced the analytic cmp
// runner (its own kernel + cache construction) with the fabric layer
// threaded through Prepare/NewInstance: the degenerate single-core CMP
// must reproduce the old runner's numbers bit for bit. The golden rows
// in testdata/cmp_analytic_golden.json were captured from the analytic
// cmp.Run before the refactor (FastLRU, multicast, gcc, 2000 accesses,
// seed 42).
func TestCMPAnalyticGolden(t *testing.T) {
	type goldenRow struct {
		Design        string       `json:"design"`
		Cores         int          `json:"cores"`
		ThroughputIPC float64      `json:"throughput_ipc"`
		CacheHitRate  float64      `json:"cache_hit_rate"`
		PerCore       []CoreResult `json:"per_core"`
	}
	buf, err := os.ReadFile(filepath.Join("testdata", "cmp_analytic_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		res, err := Run(Options{
			DesignID: row.Design, Policy: cache.FastLRU, Mode: cache.Multicast,
			Benchmark: "gcc", Accesses: 2000, Seed: 42, Cores: row.Cores,
		})
		if err != nil {
			t.Fatalf("%s/%d cores: %v", row.Design, row.Cores, err)
		}
		if res.IPC != row.ThroughputIPC {
			t.Errorf("%s: throughput IPC %v, analytic golden %v", row.Design, res.IPC, row.ThroughputIPC)
		}
		if res.HitRate != row.CacheHitRate {
			t.Errorf("%s: hit rate %v, analytic golden %v", row.Design, res.HitRate, row.CacheHitRate)
		}
		if len(res.Cores) != len(row.PerCore) {
			t.Fatalf("%s: %d core rows, golden has %d", row.Design, len(res.Cores), len(row.PerCore))
		}
		for i, cr := range res.Cores {
			if cr != row.PerCore[i] {
				t.Errorf("%s core %d drifted from analytic golden\n got %+v\nwant %+v",
					row.Design, i, cr, row.PerCore[i])
			}
		}
	}
}

func TestCMPSingleCore(t *testing.T) {
	res, err := Run(cmpOpts("A", 1, 800))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	c := res.Cores[0]
	if c.IPC <= 0 || c.AvgLatency <= 0 {
		t.Fatalf("bad core result: %+v", c)
	}
	// One core homes every column: nothing is remote.
	if c.RemoteShare != 0 {
		t.Fatalf("single core remote share = %v, want 0", c.RemoteShare)
	}
	if res.IPC != c.IPC || res.Instructions != c.Instructions || res.Cycles != c.Cycles {
		t.Fatalf("aggregates disagree with the only core: %+v vs %+v", res, c)
	}
}

func TestCMPRemoteIssuesCrossTheRow(t *testing.T) {
	res, err := Run(cmpOpts("A", 4, 600))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cores {
		// With 16 columns over 4 cores, ~3/4 of uniformly spread
		// accesses are remote.
		if c.RemoteShare < 0.4 || c.RemoteShare > 0.95 {
			t.Errorf("core %d remote share = %.2f, want ~0.75", c.Core, c.RemoteShare)
		}
	}
}

func TestCMPInterferenceRaisesMissRate(t *testing.T) {
	one, err := Run(cmpOpts("A", 1, 900))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(cmpOpts("A", 4, 900))
	if err != nil {
		t.Fatal(err)
	}
	// Four disjoint working sets share 16 ways: hit rates drop.
	if four.HitRate >= one.HitRate {
		t.Errorf("4-core hit rate %.3f not below 1-core %.3f", four.HitRate, one.HitRate)
	}
	// But aggregate throughput still rises with cores.
	if four.IPC <= one.IPC {
		t.Errorf("4-core throughput %.3f not above 1-core %.3f", four.IPC, one.IPC)
	}
}

// TestCMPHierarchicalRemoteTraffic: a 4-core run on the two-chiplet
// fabric makes progress and actually exercises the fabric — at least one
// core sends requests to another core's home controller.
func TestCMPHierarchicalRemoteTraffic(t *testing.T) {
	res, err := Run(cmpOpts("H2", 4, 600))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("no throughput on H2")
	}
	remote := false
	for _, c := range res.Cores {
		if c.RemoteShare > 0 {
			remote = true
		}
	}
	if !remote {
		t.Fatal("4-core H2 run produced no cross-home traffic; the fabric is not exercised")
	}
}

// TestCMPPrepCacheMatchesPlainRun: the engine path (shared PrepCache,
// warm-image cloning of the merged CMP warm table) must be bit-identical
// to the uncached single run.
func TestCMPPrepCacheMatchesPlainRun(t *testing.T) {
	opt := cmpOpts("H2", 2, 500)
	plain, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := NewEngine(1).RunAll([]Options{opt, opt})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.IPC != plain.IPC || res.Cycles != plain.Cycles {
			t.Fatalf("engine run %d drifted from plain Run: IPC %v vs %v", i, res.IPC, plain.IPC)
		}
		for j := range plain.Cores {
			if res.Cores[j] != plain.Cores[j] {
				t.Fatalf("engine run %d core %d drifted: %+v vs %+v", i, j, res.Cores[j], plain.Cores[j])
			}
		}
	}
}

// TestCMPDirectoryPolicyRun drives the ownership-tracking policy
// through a full trace-driven multi-core run and reconciles the
// directory against the resident blocks afterwards — the end-to-end
// complement of the scripted conformance matrix in internal/cmp.
func TestCMPDirectoryPolicyRun(t *testing.T) {
	opt := cmpOpts("A", 4, 600)
	opt.Policy = cache.Directory
	art, err := Prepare(opt, NewPrepCache())
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(art, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.RunToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || len(res.Cores) != 4 {
		t.Fatalf("bad result: %+v", res)
	}
	dir := in.Sys.Dir
	if dir == nil {
		t.Fatal("directory policy ran without directory state")
	}
	if v := dir.Verify(in.Sys); len(v) != 0 {
		t.Fatalf("directory out of sync after full run: %v", v)
	}
	rep := dir.Report()
	if len(rep.Owners) != 4 {
		t.Fatalf("directory saw owners %v, want 4 cores", rep.Owners)
	}
	if rep.CrossDrops == 0 {
		t.Error("600 accesses x 4 overlapping working sets produced no cross-core evictions")
	}
}

func TestCMPRejectsBadOptions(t *testing.T) {
	bad := cmpOpts("A", -1, 100)
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("negative cores: got %v", err)
	}
	radial := cmpOpts("E", 2, 100)
	if _, err := Run(radial); err == nil || !strings.Contains(err.Error(), "radial") {
		t.Errorf("radial design: got %v", err)
	}
	wide := cmpOpts("A", 17, 100)
	if _, err := Run(wide); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("cores beyond the row: got %v", err)
	}
}

// TestCMPCanonicalKeySeesCores: Cores is a configuration, not an
// execution knob — distinct core counts must hash to distinct keys so
// the serving cache never aliases them.
func TestCMPCanonicalKeySeesCores(t *testing.T) {
	a, err := CanonicalKey(cmpOpts("A", 0, 500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalKey(cmpOpts("A", 2, 500))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Cores=0 and Cores=2 share a canonical key")
	}
}
