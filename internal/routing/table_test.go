package routing

import (
	"testing"

	"nucanet/internal/topology"
)

// TestTablePrecomputeMatchesAlgorithm is the faithfulness pin for route
// precomputation: for every algorithm/topology pair used by the designs,
// the table returns exactly the (port, ok) the base algorithm computes
// for every (cur, dst) pair. Any divergence would silently change
// simulation results, so this is exhaustive, not sampled.
func TestTablePrecomputeMatchesAlgorithm(t *testing.T) {
	cases := []struct {
		name string
		topo *topology.Topology
		alg  Algorithm
	}{
		{"XY/mesh", mesh16(), XY{}},
		{"XYX/simplified", simpl16(), XYX{}},
		{"Spike/halo", topology.MustBuild("halo", topology.Params{W: 16, H: 16}), Spike{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := Precompute(tc.topo, tc.alg)
			if err != nil {
				t.Fatal(err)
			}
			if tb.Name() != tc.alg.Name() {
				t.Fatalf("table name %q, want %q", tb.Name(), tc.alg.Name())
			}
			n := tc.topo.NumNodes()
			for cur := 0; cur < n; cur++ {
				for dst := 0; dst < n; dst++ {
					wantP, wantOK := tc.alg.NextPort(tc.topo, cur, dst)
					gotP, gotOK := tb.NextPort(tc.topo, cur, dst)
					if gotOK != wantOK || (wantOK && gotP != wantP) {
						t.Fatalf("%d->%d: table (%d,%v), algorithm (%d,%v)",
							cur, dst, gotP, gotOK, wantP, wantOK)
					}
				}
			}
		})
	}
}

// TestPrecomputeIdempotent checks that wrapping a table returns the same
// table, so callers can precompute defensively without stacking lookups.
func TestPrecomputeIdempotent(t *testing.T) {
	m := mesh16()
	tb, err := Precompute(m, XY{})
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := Precompute(m, tb)
	if err != nil {
		t.Fatal(err)
	}
	if tb2 != tb {
		t.Fatal("Precompute of a *Table built a new table")
	}
	if _, ok := tb.base.(XY); !ok {
		t.Fatalf("base: got %T, want XY", tb.base)
	}
}
