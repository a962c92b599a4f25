package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nucanet/internal/cache"
)

var updateGoldens = flag.Bool("update", false, "rewrite experiment golden files")

// runExperiment runs a registered experiment the way paperbench does and
// returns its runs, accounting and renderer. A row without jobs must run
// nothing; every other row accounts for each of its runs.
func runExperiment(t *testing.T, name string, cfg ExpConfig) SweepRows {
	t.Helper()
	e, err := ExperimentByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Report.Runs; n != len(rows.Runs) || (n == 0) != (e.jobs == nil) {
		t.Fatalf("%s: Report.Runs = %d with %d runs (row has jobs: %v)", name, n, len(rows.Runs), e.jobs != nil)
	}
	return rows
}

// paperCfg is DefaultExpConfig, the paper's multicast Fast-LRU, at a
// test's size.
func paperCfg(accesses int, seed uint64) ExpConfig {
	cfg := DefaultExpConfig()
	cfg.Accesses, cfg.Seed = accesses, seed
	return cfg
}

// TestExperimentCatalogue pins the catalogue: exactly these experiments
// in the paper's presentation order, with the special-purpose telemetry
// and CMP experiments excluded from "all".
func TestExperimentCatalogue(t *testing.T) {
	want := []string{"t1", "t2", "t3", "t4", "f7", "f8", "f9", "headline", "energy", "power", "pareto", "telemetry", "cmp"}
	if names := ExperimentNames(); !slices.Equal(names, want) {
		t.Fatalf("ExperimentNames() = %v, want %v", names, want)
	}
	for _, name := range want {
		e, err := ExperimentByName(name)
		if err != nil {
			t.Fatalf("ExperimentByName(%q): %v", name, err)
		}
		wantInAll := name != "telemetry" && name != "cmp"
		if e.InAll != wantInAll {
			t.Errorf("experiment %q InAll = %v, want %v", name, e.InAll, wantInAll)
		}
		if e.About == "" || e.Title(DefaultExpConfig()) == "" {
			t.Errorf("experiment %q missing About or Title", name)
		}
	}
	_, err := ExperimentByName("no-such-experiment")
	if want := `core: unknown experiment "no-such-experiment" (registered: [cmp energy f7 f8 f9 headline pareto power t1 t2 t3 t4 telemetry])`; err == nil || err.Error() != want {
		t.Errorf("ExperimentByName miss: err = %v, want %q", err, want)
	}
}

// TestExperimentGoldens locks every catalogue row's output bytes to its
// committed golden, so a row added without one fails. Regenerate with:
// go test ./internal/core/ -run TestExperimentGoldens -update
func TestExperimentGoldens(t *testing.T) {
	cfg := paperCfg(200, 42)
	// The sweeps added after the first seven (~5 s together) are skipped
	// under -short; the first seven always run.
	long := map[string]bool{"f8": true, "f9": true, "headline": true, "pareto": true, "telemetry": true, "cmp": true}
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			if long[name] && testing.Short() {
				t.Skip("full sweep; skipped in -short")
			}
			e, err := ExperimentByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "=== %s ===\n", e.Title(cfg))
			runExperiment(t, name, cfg).Render(&buf)
			path := filepath.Join("testdata", "exp_"+name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("experiment %q output drifted from golden %s\ngot:\n%s", name, path, buf.String())
			}
		})
	}
}

// TestExperimentSchemeOverride: ExpConfig's Policy and Mode reach every
// run of the single-scheme experiments and name the scheme in their
// titles; cmp keeps its directory policy and takes the mode. (A bad name
// cannot reach ExpConfig: the CLIs resolve it, cmd/cli_test.go's rows.)
func TestExperimentSchemeOverride(t *testing.T) {
	cfg := paperCfg(40, 42)
	cfg.Policy, cfg.Mode = cache.LRU, cache.Unicast
	for _, name := range []string{"f9", "energy", "power", "telemetry", "cmp"} {
		want := cache.LRU
		if name == "cmp" {
			want = cache.Directory
		}
		for i, r := range runExperiment(t, name, cfg).Runs {
			if r.Options.Policy != want || r.Options.Mode != cache.Unicast {
				t.Errorf("%s run %d ran %v+%v, want unicast+%v", name, i, r.Options.Mode, r.Options.Policy, want)
			}
		}
	}
	for _, name := range []string{"f9", "telemetry"} {
		e, err := ExperimentByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if title := e.Title(cfg); !strings.HasSuffix(title, ", unicast+LRU") {
			t.Errorf("%s title %q does not name unicast+LRU", name, title)
		}
	}
}

// TestExperimentBenchReachesRuns: ExpConfig.Bench is the benchmark of
// every run of the single-benchmark experiments, and each measured Pareto
// point equals a direct run on the bench.
func TestExperimentBenchReachesRuns(t *testing.T) {
	cfg := paperCfg(40, 42)
	cfg.Bench = "mcf"
	for _, name := range []string{"energy", "power", "telemetry", "cmp"} {
		for i, r := range runExperiment(t, name, cfg).Runs {
			if r.Options.Benchmark != "mcf" {
				t.Errorf("%s run %d ran %q, want mcf", name, i, r.Options.Benchmark)
			}
		}
	}
	for _, pt := range paretoPoints(cfg, runExperiment(t, "pareto", cfg).Runs) {
		if pt.Skipped != "" {
			continue
		}
		p, err := cache.PolicyByName(strings.TrimPrefix(pt.Scheme, "multicast+"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Options{DesignID: pt.DesignID, Policy: p, Mode: cache.Multicast, Router: pt.RouterName,
			Benchmark: "mcf", Accesses: cfg.Accesses, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.IPC != pt.IPC || r.AvgLatency != pt.AvgLat {
			t.Errorf("pareto %s/%s/%s: ipc %v lat %v, an mcf run gives %v %v",
				pt.RouterName, pt.DesignID, pt.Scheme, pt.IPC, pt.AvgLat, r.IPC, r.AvgLatency)
		}
	}
}
