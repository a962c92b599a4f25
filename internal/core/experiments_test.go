package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/energy"
	"nucanet/internal/trace"
)

// tiny keeps the full-sweep drivers testable in seconds.
var tiny = paperCfg(250, 7)

func TestFig7Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := runExperiment(t, "f7", tiny).Runs
	if len(runs) != 12 {
		t.Fatalf("runs = %d, want 12", len(runs))
	}
	for _, r := range runs {
		sum := 100 * (r.BankShare + r.NetworkShare + r.MemShare)
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: split sums to %.2f", r.Options.Benchmark, sum)
		}
		if r.Design.ID != "A" || r.Options.Policy != cache.LRU || r.Options.Mode != cache.Unicast {
			t.Errorf("%s: not the unicast LRU baseline on Design A: %+v", r.Options.Benchmark, r.Options)
		}
	}
	if runs[0].Options.Benchmark != "applu" {
		t.Errorf("row order must follow Table 2: got %s first", runs[0].Options.Benchmark)
	}
}

func TestFig8Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := runExperiment(t, "f8", paperCfg(200, 7)).Runs
	schemes := fig8Cells
	if len(runs) != 12*len(schemes) {
		t.Fatalf("runs = %d, want 60", len(runs))
	}
	for i, r := range runs {
		s := schemes[i%len(schemes)]
		if r.Options.Policy != s.policy || r.Options.Mode != s.mode {
			t.Errorf("run %d (%s) is not scheme %s", i, r.Options.Benchmark, s.scheme())
		}
		if r.AvgLatency <= 0 || r.IPC <= 0 {
			t.Errorf("%s/%s: empty measurement", r.Options.Benchmark, s.scheme())
		}
		if r.AvgOccupancy < r.AvgLatency {
			t.Errorf("%s/%s: occupancy %.1f below latency %.1f", r.Options.Benchmark, s.scheme(), r.AvgOccupancy, r.AvgLatency)
		}
	}
}

func TestFig9Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := runExperiment(t, "f9", paperCfg(200, 7)).Runs
	designs := config.Designs()
	if len(runs) != 12*len(designs) {
		t.Fatalf("runs = %d, want 72", len(runs))
	}
	for i, r := range runs {
		// The renderer normalizes each benchmark's block to its leading
		// Design A run.
		base := runs[i-i%len(designs)]
		if base.Design.ID != "A" || base.Options.Benchmark != r.Options.Benchmark {
			t.Fatalf("run %d: block does not lead with Design A on %s", i, r.Options.Benchmark)
		}
		if r.Design.ID != designs[i%len(designs)].ID {
			t.Errorf("run %d: design %s, want %s", i, r.Design.ID, designs[i%len(designs)].ID)
		}
		if r.IPC <= 0 {
			t.Errorf("%s/%s: bad IPC", r.Options.Benchmark, r.Design.ID)
		}
	}
}

func TestEnergyComparisonDriver(t *testing.T) {
	runs := runExperiment(t, "energy", paperCfg(600, 7)).Runs
	if len(runs) != 6 {
		t.Fatalf("runs = %d, want 6", len(runs))
	}
	var a, f energy.Report
	for _, r := range runs {
		if r.Energy.TotalPJ() <= 0 {
			t.Errorf("%s: no energy accounted", r.Design.ID)
		}
		switch r.Design.ID {
		case "A":
			a = r.Energy
		case "F":
			f = r.Energy
		}
	}
	// The halo moves far fewer flit-hops per access than the mesh: its
	// network energy (and total) must come in below Design A's.
	if f.NetworkPJ >= a.NetworkPJ {
		t.Errorf("halo F network energy %.0f not below mesh A %.0f", f.NetworkPJ, a.NetworkPJ)
	}
	if f.PerAccessNJ() >= a.PerAccessNJ() {
		t.Errorf("halo F %.2f nJ/access not below mesh A %.2f", f.PerAccessNJ(), a.PerAccessNJ())
	}
}

// claimByID returns the claim table's row id.
func claimByID(t *testing.T, id string) claim {
	t.Helper()
	for _, c := range claims {
		if c.id == id {
			return c
		}
	}
	t.Fatalf("no claim %q", id)
	return claim{}
}

// TestHeadlineClaimsSmall reads the abstract's claims from the claim
// table on a short headline sweep.
func TestHeadlineClaimsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := runExperiment(t, "headline", paperCfg(300, 7)).Runs
	if g := claimByID(t, "headline/halo-fast-vs-mesh-promo").measure(runs); g <= 0 {
		t.Errorf("halo fastLRU vs mesh promotion gain = %+.1f%%, want > 0", g)
	}
	if g := claimByID(t, "headline/fast-vs-promo").measure(runs); g <= 0 {
		t.Errorf("fastLRU vs promotion gain = %+.1f%%, want > 0", g)
	}
	if a := claimByID(t, "headline/area").measure(runs); a <= 10 || a >= 40 {
		t.Errorf("area share = %.1f%%, want ~23%%", a)
	}
}

// TestClaimTable pins the claim table to the tables that print it: ids
// are unique and name their experiment, and each claim sits on exactly
// one line of that experiment's golden — the line holding its label and
// its paper text (for a claim the paper gives no value, the line holding
// its label and no paper text).
func TestClaimTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claims {
		if seen[c.id] {
			t.Errorf("claim id %q repeats", c.id)
		}
		seen[c.id] = true
		if !strings.HasPrefix(c.id, c.exp+"/") {
			t.Errorf("claim %q does not lead with its experiment %q", c.id, c.exp)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "exp_"+c.exp+".golden"))
		if err != nil {
			t.Fatalf("claim %q: %v", c.id, err)
		}
		n := 0
		for _, line := range strings.Split(string(golden), "\n") {
			if !strings.Contains(line, c.label) {
				continue
			}
			if c.paper == "" && !strings.Contains(line, "(paper") || c.paper != "" && strings.Contains(line, c.paper) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("claim %q (label %q, paper %q) sits on %d lines of exp_%s.golden, want 1", c.id, c.label, c.paper, n, c.exp)
		}
	}
	// renderFig9 prints its columns from config.Designs() and its avg row
	// from the f9 claims: the two must line up.
	f9 := claimsOf("f9/")
	for i, d := range config.Designs() {
		if i >= len(f9) || f9[i].label != d.ID {
			t.Fatalf("f9 claim %d does not follow the design catalogue's %s", i, d.ID)
		}
	}
}

func TestPowerGatingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := runExperiment(t, "power", paperCfg(800, 7)).Runs
	if len(runs) != 5 || len(runs[0].Design.Banks) != 16 || len(runs[4].Design.Banks) != 2 {
		t.Fatalf("sweep shape wrong: %d runs", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		prev, cur := runs[i-1], runs[i]
		// Gating banks can only lose capacity, hits and performance.
		if cur.HitRate > prev.HitRate+0.01 {
			t.Errorf("hit rate rose when gating %d -> %d ways: %v -> %v",
				len(prev.Design.Banks), len(cur.Design.Banks), prev.HitRate, cur.HitRate)
		}
		if cur.IPC > prev.IPC+0.01 {
			t.Errorf("IPC rose when gating %d -> %d ways: %v -> %v",
				len(prev.Design.Banks), len(cur.Design.Banks), prev.IPC, cur.IPC)
		}
		if cur.Design.CapacityKB() >= prev.Design.CapacityKB() {
			t.Error("capacity must shrink")
		}
	}
	// The network+bank energy of a 16-deep column dwarfs a 4-deep one.
	if runs[3].Energy.NetworkPJ >= runs[0].Energy.NetworkPJ {
		t.Error("gating must cut network energy")
	}
}

// TestPowerGatingFollowsRouterOverride: ExpConfig.RouterName overrides
// the engine of every run in an experiment, the hand-built gated designs
// included (they once dropped it, so -exp power -router X printed the
// default router's table).
func TestPowerGatingFollowsRouterOverride(t *testing.T) {
	cfg := paperCfg(100, 7)
	cfg.RouterName = "bufferless"
	for _, r := range runExperiment(t, "power", cfg).Runs {
		if got := r.Design.Router.Engine; got != "bufferless" {
			t.Errorf("%d-way gated run simulated on router %q, want bufferless", len(r.Design.Banks), got)
		}
	}
}

func TestTable2CheckCoversAllProfiles(t *testing.T) {
	rows := Table2Check(5000, 1)
	names := trace.Names()
	for i, r := range rows {
		if r.Profile.Name != names[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Profile.Name, names[i])
		}
	}
}
