package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"nucanet/internal/cache"
)

const testN = 2500 // accesses per run: keeps the full suite under a minute

func run(t *testing.T, design string, p cache.Policy, m cache.Mode, bench string) Result {
	t.Helper()
	r, err := Run(Options{
		DesignID: design, Policy: p, Mode: m,
		Benchmark: bench, Accesses: testN, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBasics(t *testing.T) {
	r := run(t, "A", cache.FastLRU, cache.Multicast, "gcc")
	if r.IPC <= 0 || r.IPC >= r.PerfectIPC {
		t.Fatalf("IPC %.3f out of (0, %.2f)", r.IPC, r.PerfectIPC)
	}
	if r.AvgLatency <= 0 || r.AvgHit <= 0 || r.AvgMiss <= r.AvgHit {
		t.Fatalf("latencies inconsistent: %+v", r)
	}
	if s := r.BankShare + r.NetworkShare + r.MemShare; math.Abs(s-1) > 1e-9 {
		t.Fatalf("shares sum to %v", s)
	}
	if r.HitRate < 0.85 || r.HitRate > 1 {
		t.Fatalf("gcc hit rate %.3f out of expected band", r.HitRate)
	}
	if r.Memory.Reads == 0 {
		t.Fatal("expected some memory reads")
	}
	if r.AvgOccupancy < r.AvgLatency {
		t.Fatal("occupancy must not be below the access latency")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Options{DesignID: "Z", Benchmark: "gcc", Accesses: 10}); err == nil {
		t.Fatal("bad design must error")
	}
	if _, err := Run(Options{DesignID: "A", Benchmark: "doom", Accesses: 10}); err == nil {
		t.Fatal("bad benchmark must error")
	}
	if _, err := Run(Options{DesignID: "A", Benchmark: "gcc", Accesses: 0}); err == nil {
		t.Fatal("zero accesses must error")
	}
}

// TestFig8ShapeHolds is the integration form of the paper's Section 6.1
// claims on the real Design A, with the CPU model pacing requests.
func TestFig8ShapeHolds(t *testing.T) {
	for _, bench := range []string{"gcc", "mcf"} {
		uPromo := run(t, "A", cache.Promotion, cache.Unicast, bench)
		uLRU := run(t, "A", cache.LRU, cache.Unicast, bench)
		uFast := run(t, "A", cache.FastLRU, cache.Unicast, bench)
		mPromo := run(t, "A", cache.Promotion, cache.Multicast, bench)
		mFast := run(t, "A", cache.FastLRU, cache.Multicast, bench)

		// Multicast Fast-LRU has the best IPC and the lowest hit latency.
		for _, other := range []Result{uPromo, uLRU, uFast, mPromo} {
			if mFast.IPC < other.IPC {
				t.Errorf("%s: multicast fastLRU IPC %.3f below %s/%s %.3f",
					bench, mFast.IPC, other.Options.Mode, other.Options.Policy, other.IPC)
			}
		}
		if mFast.AvgHit >= mPromo.AvgHit {
			t.Errorf("%s: multicast fastLRU hit latency %.1f not below promotion %.1f",
				bench, mFast.AvgHit, mPromo.AvgHit)
		}
		// Fast-LRU frees the column earlier than classic LRU.
		if uFast.AvgOccupancy >= uLRU.AvgOccupancy {
			t.Errorf("%s: unicast fastLRU occupancy %.1f not below LRU %.1f",
				bench, uFast.AvgOccupancy, uLRU.AvgOccupancy)
		}
		// LRU-ordered policies concentrate hits at the MRU banks.
		if uLRU.MRUHitShare <= uPromo.MRUHitShare {
			t.Errorf("%s: LRU MRU share %.3f not above promotion %.3f",
				bench, uLRU.MRUHitShare, uPromo.MRUHitShare)
		}
	}
}

// TestFig7NetworkDominates: under unicast LRU the network is the largest
// latency component (the paper's motivating observation).
func TestFig7NetworkDominates(t *testing.T) {
	for _, bench := range []string{"gcc", "twolf", "art"} {
		r := run(t, "A", cache.LRU, cache.Unicast, bench)
		if r.NetworkShare <= r.BankShare || r.NetworkShare <= r.MemShare {
			t.Errorf("%s: network share %.2f not dominant (bank %.2f, mem %.2f)",
				bench, r.NetworkShare, r.BankShare, r.MemShare)
		}
	}
}

// TestFig9ShapeHolds: the simplified mesh matches the baseline and the
// halo beats it; the non-uniform halo is the best design.
func TestFig9ShapeHolds(t *testing.T) {
	for _, bench := range []string{"gcc", "mcf"} {
		a := run(t, "A", cache.FastLRU, cache.Multicast, bench)
		b := run(t, "B", cache.FastLRU, cache.Multicast, bench)
		e := run(t, "E", cache.FastLRU, cache.Multicast, bench)
		f := run(t, "F", cache.FastLRU, cache.Multicast, bench)
		if b.IPC < 0.97*a.IPC {
			t.Errorf("%s: design B IPC %.3f fell below A %.3f", bench, b.IPC, a.IPC)
		}
		if e.IPC <= a.IPC {
			t.Errorf("%s: halo E IPC %.3f not above mesh A %.3f", bench, e.IPC, a.IPC)
		}
		if f.IPC <= a.IPC {
			t.Errorf("%s: halo F IPC %.3f not above mesh A %.3f", bench, f.IPC, a.IPC)
		}
		// Halo hit latency beats the mesh (every MRU bank one hop away).
		if f.AvgHit >= a.AvgHit {
			t.Errorf("%s: halo F hit latency %.1f not below mesh %.1f", bench, f.AvgHit, a.AvgHit)
		}
	}
}

func TestTable2Check(t *testing.T) {
	rows := Table2Check(20000, 42)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		p := r.Profile
		if math.Abs(r.GenAccPerInst-p.AccPerInstr)/p.AccPerInstr > 0.10 {
			t.Errorf("%s: generator acc/instr %.4f vs table %.4f", p.Name, r.GenAccPerInst, p.AccPerInstr)
		}
		if math.Abs(r.GenWriteFrac-p.WriteFrac()) > 0.03 {
			t.Errorf("%s: write frac %.3f vs table %.3f", p.Name, r.GenWriteFrac, p.WriteFrac())
		}
		if math.Abs(r.GenHitRate16-(1-p.MissRate)) > 0.04 {
			t.Errorf("%s: 16-way hit rate %.3f vs target %.3f", p.Name, r.GenHitRate16, 1-p.MissRate)
		}
	}
}

// TestTable4Rows: the t4 row, which simulates nothing (runExperiment
// checks), prints the paper's four designs in Table 4's order.
func TestTable4Rows(t *testing.T) {
	var buf bytes.Buffer
	runExperiment(t, "t4", DefaultExpConfig()).Render(&buf)
	var ids []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && len(f[0]) == 1 {
			ids = append(ids, f[0])
		}
	}
	if want := []string{"A", "B", "E", "F"}; !slices.Equal(ids, want) {
		t.Fatalf("rows %v, want %v:\n%s", ids, want, &buf)
	}
}

func TestFig8SchemesOrder(t *testing.T) {
	s := fig8Cells
	if len(s) != 5 || s[0].scheme() != "unicast+promotion" || s[4].scheme() != "multicast+fastLRU" {
		t.Fatalf("scheme list wrong: %+v", s)
	}
}
