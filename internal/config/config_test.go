package config

import (
	"testing"

	"nucanet/internal/topology"
)

func TestAllDesignsValid(t *testing.T) {
	ds := Designs()
	if len(ds) != 6 {
		t.Fatalf("designs = %d, want 6 (Table 3)", len(ds))
	}
	for _, d := range ds {
		if err := d.Validate(); err != nil {
			t.Errorf("design %s: %v", d.ID, err)
		}
	}
}

func TestAllDesigns16MB16Way(t *testing.T) {
	for _, d := range Designs() {
		if got := d.CapacityKB(); got != 16*1024 {
			t.Errorf("design %s capacity = %d KB, want 16384", d.ID, got)
		}
		if got := d.Ways(); got != 16 {
			t.Errorf("design %s ways = %d, want 16", d.ID, got)
		}
		if got := d.Columns(); got != 16 {
			t.Errorf("design %s columns = %d, want 16", d.ID, got)
		}
		am := d.AddrMap()
		if am.Sets != 1024 || am.Columns != 16 {
			t.Errorf("design %s addr map = %+v", d.ID, am)
		}
	}
}

func TestDesignTopologies(t *testing.T) {
	want := map[string]string{
		"A": "mesh",
		"B": "simplified-mesh",
		"C": "simplified-mesh",
		"D": "simplified-mesh",
		"E": "halo",
		"F": "halo",
	}
	for _, d := range Designs() {
		if d.Topology != want[d.ID] {
			t.Errorf("design %s topology = %q, want %q", d.ID, d.Topology, want[d.ID])
		}
		if !contains(topology.Names(), d.Topology) {
			t.Errorf("design %s topology %q is not a registered builder", d.ID, d.Topology)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestDesignByID(t *testing.T) {
	d, err := DesignByID("F")
	if err != nil {
		t.Fatal(err)
	}
	if d.Params.H != 5 || d.Params.MemWireDelay != 9 {
		t.Fatalf("design F = %+v", d)
	}
	if _, err := DesignByID("Z"); err == nil ||
		err.Error() != `config: unknown design "Z" (known: [A B C D E F R G H2])` {
		t.Fatalf("unknown design error = %v, want it to name the catalogue", err)
	}
}

func TestBankCounts(t *testing.T) {
	counts := map[string]int{"A": 256, "B": 256, "C": 64, "D": 80, "E": 256, "F": 80}
	for _, d := range Designs() {
		topo, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.NumBanks(); got != counts[d.ID] {
			t.Errorf("design %s banks = %d, want %d", d.ID, got, counts[d.ID])
		}
	}
}

func TestDesignAMemoryAtBottom(t *testing.T) {
	a, _ := DesignByID("A")
	topo, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Mem == topo.Core {
		t.Fatal("design A memory must be at the bottom row, not at the core")
	}
	b, _ := DesignByID("B")
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Mem != tb.Core {
		t.Fatal("design B must co-locate memory with the core")
	}
}

func TestNonUniformColumnLayout(t *testing.T) {
	d, _ := DesignByID("D")
	wantKB := []int{64, 64, 128, 256, 512}
	wantWays := []int{1, 1, 2, 4, 8}
	for i, b := range d.Banks {
		if b.SizeKB != wantKB[i] || b.Ways != wantWays[i] {
			t.Errorf("design D bank %d = %v", i, b)
		}
	}
}
