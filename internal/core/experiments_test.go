package core

import (
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/energy"
	"nucanet/internal/trace"
)

// tiny keeps the full-sweep drivers testable in seconds.
var tiny = ExpConfig{Accesses: 250, Seed: 7}

func TestFig7Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := sweepRuns(t, "f7", tiny)
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
	runs := sweepRuns(t, "f8", ExpConfig{Accesses: 200, Seed: 7})
	schemes := Fig8Schemes()
	if len(runs) != 12*len(schemes) {
		t.Fatalf("runs = %d, want 60", len(runs))
	}
	for i, r := range runs {
		s := schemes[i%len(schemes)]
		if r.Options.Policy != s.Policy || r.Options.Mode != s.Mode {
			t.Errorf("run %d (%s) is not scheme %s", i, r.Options.Benchmark, s.Name)
		}
		if r.AvgLatency <= 0 || r.IPC <= 0 {
			t.Errorf("%s/%s: empty measurement", r.Options.Benchmark, s.Name)
		}
		if r.AvgOccupancy < r.AvgLatency {
			t.Errorf("%s/%s: occupancy %.1f below latency %.1f", r.Options.Benchmark, s.Name, r.AvgOccupancy, r.AvgLatency)
		}
	}
}

func TestFig9Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := sweepRuns(t, "f9", ExpConfig{Accesses: 200, Seed: 7})
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
	runs := sweepRuns(t, "energy", ExpConfig{Accesses: 600, Seed: 7})
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

func TestComputeHeadlineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	h, _, err := ComputeHeadline(ExpConfig{Accesses: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if h.IPCGainVsMeshPromotion <= 1.0 {
		t.Errorf("halo fastLRU vs mesh promotion gain = %.3f, want > 1", h.IPCGainVsMeshPromotion)
	}
	if h.FastLRUIPCGain <= 1.0 {
		t.Errorf("fastLRU vs promotion gain = %.3f, want > 1", h.FastLRUIPCGain)
	}
	if h.InterconnectAreaRatio <= 0.1 || h.InterconnectAreaRatio >= 0.4 {
		t.Errorf("area ratio = %.3f, want ~0.23", h.InterconnectAreaRatio)
	}
}

func TestPowerGatingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	runs := sweepRuns(t, "power", ExpConfig{Accesses: 800, Seed: 7})
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
	for _, r := range sweepRuns(t, "power", ExpConfig{Accesses: 100, Seed: 7, RouterName: "bufferless"}) {
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
