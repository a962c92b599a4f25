package area

import (
	"math"
	"testing"

	"nucanet/internal/config"
	"nucanet/internal/router"
)

// analyze unwraps Analyze for designs the tests know to be valid.
func analyze(t *testing.T, m Model, d config.Design) Report {
	t.Helper()
	r, err := m.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBankAreaScaling(t *testing.T) {
	m := DefaultModel()
	if got := m.BankArea(64); math.Abs(got-1.06) > 1e-9 {
		t.Fatalf("64KB bank = %v, want 1.06", got)
	}
	// Sublinear: doubling capacity must less-than-double... i.e. density
	// improves: area(128)/area(64) < 2 but > 1.
	r := m.BankArea(128) / m.BankArea(64)
	if r <= 1.5 || r >= 2 {
		t.Fatalf("capacity scaling ratio = %v, want in (1.5, 2)", r)
	}
	// A full non-uniform column (1 MB) must be smaller than sixteen
	// 64 KB banks (1 MB), reflecting Design F's density win.
	nonUniform := m.BankArea(64)*2 + m.BankArea(128) + m.BankArea(256) + m.BankArea(512)
	uniform := 16 * m.BankArea(64)
	if nonUniform >= uniform {
		t.Fatalf("non-uniform column %v should beat uniform %v", nonUniform, uniform)
	}
}

func TestThreePortRouterNearHalf(t *testing.T) {
	// Paper Section 6.3: the simple 3-port router takes ~48% of the
	// normal (5-port) router area.
	m := DefaultModel()
	of := func(ports int) float64 {
		a, err := m.RouterAreaFor(router.DefaultConfig(), ports)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ratio := of(3) / of(5)
	if ratio < 0.42 || ratio > 0.54 {
		t.Fatalf("3-port/5-port = %.3f, want ~0.48", ratio)
	}
}

func TestLinkWidth(t *testing.T) {
	// 128-bit bidirectional link at 1 um pitch = 256 um.
	if got := DefaultModel().LinkWidthMM(); math.Abs(got-0.256) > 1e-9 {
		t.Fatalf("link width = %v mm, want 0.256", got)
	}
}

func TestDesignANetworkShare(t *testing.T) {
	// Headline observation: the network occupies ~52% of the cache area
	// in the 16x16 mesh design.
	d, _ := config.DesignByID("A")
	r := analyze(t, DefaultModel(), d)
	share := (r.RouterPct() + r.LinkPct()) / 100
	if share < 0.44 || share < 0 || share > 0.60 {
		t.Fatalf("design A network share = %.3f, want ~0.52", share)
	}
	// And the paper's absolute scale: L2 around 550-590 mm^2.
	if r.L2MM2() < 480 || r.L2MM2() > 650 {
		t.Fatalf("design A L2 = %.1f mm^2, want near 567.7", r.L2MM2())
	}
}

func TestTable4Shape(t *testing.T) {
	reps, err := Table4(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("rows = %d, want 4", len(reps))
	}
	byID := map[string]Report{}
	for _, r := range reps {
		byID[r.DesignID] = r
		// Percentages must sum to 100.
		if s := r.BankPct() + r.RouterPct() + r.LinkPct(); math.Abs(s-100) > 1e-6 {
			t.Fatalf("%s: percentages sum to %v", r.DesignID, s)
		}
		if r.ChipMM2 < r.L2MM2()-1e-9 {
			t.Fatalf("%s: chip smaller than L2", r.DesignID)
		}
	}
	a, b, e, f := byID["A"], byID["B"], byID["E"], byID["F"]
	// Bank share: the baseline mesh lowest, the non-uniform halo highest.
	// (Our model makes B and E nearly equal — both are 256 banks with
	// 3-port routers and ~one link per bank; the paper's B row appears
	// to retain the unidirectional reply wires of Figure 4(b), see
	// EXPERIMENTS.md.)
	for _, r := range []Report{b, e, f} {
		if a.BankPct() >= r.BankPct() {
			t.Fatalf("design A bank share %.1f should be the lowest (vs %s %.1f)",
				a.BankPct(), r.DesignID, r.BankPct())
		}
	}
	if f.BankPct() <= b.BankPct() || f.BankPct() <= e.BankPct() {
		t.Fatalf("design F bank share %.1f should be the highest", f.BankPct())
	}
	if rel := math.Abs(b.L2MM2()-e.L2MM2()) / b.L2MM2(); rel > 0.15 {
		t.Fatalf("B and E should be near-equal in our model; differ by %.2f", rel)
	}
	// L2 area shrinks from the baseline to the halo designs.
	if !(a.L2MM2() > b.L2MM2() && a.L2MM2() > e.L2MM2() && e.L2MM2() > f.L2MM2() && b.L2MM2() > f.L2MM2()) {
		t.Fatalf("L2 area ordering wrong: A=%.1f B=%.1f E=%.1f F=%.1f",
			a.L2MM2(), b.L2MM2(), e.L2MM2(), f.L2MM2())
	}
	// Headline: Design F uses ~23% of Design A's interconnection area.
	ratio := f.NetworkMM2() / a.NetworkMM2()
	if ratio < 0.12 || ratio > 0.34 {
		t.Fatalf("F/A network area = %.3f, want ~0.23", ratio)
	}
	// Design E's die is mostly empty: chip far larger than its L2
	// (paper: the L2 uses only about a quarter of the die).
	if e.ChipMM2 < 2.5*e.L2MM2() {
		t.Fatalf("E chip %.1f should dwarf its L2 %.1f", e.ChipMM2, e.L2MM2())
	}
	// Design F's compact layout: chip within ~2x of its L2 and around
	// 6x smaller unused area than E.
	wasteE := e.ChipMM2 - e.L2MM2()
	wasteF := f.ChipMM2 - f.L2MM2()
	if wasteF*4 > wasteE {
		t.Fatalf("F waste %.1f not far below E waste %.1f", wasteF, wasteE)
	}
}

func TestHaloChipUsesCoreEdge(t *testing.T) {
	m := DefaultModel()
	e, _ := config.DesignByID("E")
	small := m
	small.CoreEdgeMM = 0
	if analyze(t, small, e).ChipMM2 >= analyze(t, m, e).ChipMM2 {
		t.Fatal("core edge must enlarge the halo die")
	}
}

func TestMeshChipEqualsPackedRows(t *testing.T) {
	// Uniform mesh: chip should be close to the L2 itself (square tiles
	// pack perfectly).
	a, _ := config.DesignByID("A")
	r := analyze(t, DefaultModel(), a)
	if r.ChipMM2 > r.L2MM2()*1.02 {
		t.Fatalf("design A chip %.1f should pack tight vs L2 %.1f", r.ChipMM2, r.L2MM2())
	}
}

func TestNonUniformMeshLayouts(t *testing.T) {
	// Designs C and D exercise the mixed-tile-size mesh layout path.
	m := DefaultModel()
	for _, id := range []string{"C", "D"} {
		d, _ := config.DesignByID(id)
		r := analyze(t, m, d)
		if r.L2MM2() <= 0 || r.ChipMM2 < r.L2MM2() {
			t.Fatalf("design %s layout broken: %+v", id, r)
		}
		// Fewer routers and links than Design A in both.
		a, _ := config.DesignByID("A")
		ra := analyze(t, m, a)
		if r.RouterMM2 >= ra.RouterMM2 || r.LinkMM2 >= ra.LinkMM2 {
			t.Fatalf("design %s should have a smaller network than A", id)
		}
	}
	// D's non-uniform banks beat C's uniform 256KB banks on density.
	c, _ := config.DesignByID("C")
	dd, _ := config.DesignByID("D")
	if analyze(t, m, dd).BankMM2 >= analyze(t, m, c).BankMM2 {
		t.Fatal("non-uniform column should pack denser than uniform 256KB")
	}
}

func TestSimplifiedMeshSavesNetwork(t *testing.T) {
	m := DefaultModel()
	a, _ := config.DesignByID("A")
	b, _ := config.DesignByID("B")
	ra, rb := analyze(t, m, a), analyze(t, m, b)
	if rb.RouterMM2 >= ra.RouterMM2 {
		t.Fatal("3-port routers must shrink router area")
	}
	if rb.LinkMM2 >= ra.LinkMM2 {
		t.Fatal("removing horizontal links must shrink link area")
	}
	if rb.BankMM2 != ra.BankMM2 {
		t.Fatal("banks unchanged between A and B")
	}
}

// TestRouterAreaPerEngine pins the per-engine buffer cost model: the
// default configuration reproduces the calibrated port polynomial exactly
// (Table 4 stays bit-identical), and the low-cost engines order strictly
// below the wormhole — the area axis the Pareto sweep trades against
// latency.
func TestRouterAreaPerEngine(t *testing.T) {
	m := DefaultModel()
	cfg := router.DefaultConfig()
	areaOf := func(engine string) float64 {
		t.Helper()
		c := cfg
		c.Engine = engine
		a, err := m.RouterAreaFor(c, 5)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	calibrated := m.RouterPortLinear*5 + m.RouterPortQuad*25
	if got := areaOf(""); got != calibrated {
		t.Errorf("default engine router area = %v, want the calibrated %v", got, calibrated)
	}
	if got := areaOf("vc-wormhole"); got != calibrated {
		t.Errorf("explicit wormhole router area = %v, want the calibrated %v", got, calibrated)
	}
	bl, rl, wh := areaOf("bufferless"), areaOf("ring-lite"), areaOf("vc-wormhole")
	if !(bl < rl && rl < wh) {
		t.Errorf("engine areas not ordered: bufferless %v, ring-lite %v, wormhole %v", bl, rl, wh)
	}
	if _, err := m.RouterAreaFor(router.Config{Engine: "optical"}, 5); err == nil {
		t.Error("unknown engine accepted by RouterAreaFor")
	}

	// A whole-design check: Design A rebuilt with the bufferless engine
	// must shed router area but keep bank area untouched.
	d, err := config.DesignByID("A")
	if err != nil {
		t.Fatal(err)
	}
	base := analyze(t, m, d)
	d.Router.Engine = "bufferless"
	lean := analyze(t, m, d)
	if !(lean.RouterMM2 < base.RouterMM2) {
		t.Errorf("bufferless design A router area %v not below wormhole's %v", lean.RouterMM2, base.RouterMM2)
	}
	if lean.BankMM2 != base.BankMM2 {
		t.Errorf("bank area changed with the router engine: %v vs %v", lean.BankMM2, base.BankMM2)
	}
}
