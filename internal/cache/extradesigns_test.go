package cache

import (
	"fmt"
	"testing"

	"nucanet/internal/config"
	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

// TestGoldenEquivalenceExtraDesigns runs the full replacement protocols
// over the registered non-paper topologies — the bidirectional ring (R)
// and the concentrated mesh (G) — and checks every access outcome
// against the golden functional model. G is the key multi-bank-per-router
// exercise: its bankMux demultiplexes column positions sharing a router,
// and multicast probes fan out to all four banks of each node.
func TestGoldenEquivalenceExtraDesigns(t *testing.T) {
	for _, id := range []string{"R", "G"} {
		d, err := config.DesignByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, policy := range []Policy{Promotion, LRU, FastLRU} {
			for _, mode := range []Mode{Unicast, Multicast} {
				if id == "R" && policy != FastLRU {
					continue // single-way columns: policies coincide; keep the run short
				}
				d, policy, mode := d, policy, mode
				t.Run(fmt.Sprintf("%s-%v-%v", id, policy, mode), func(t *testing.T) {
					k := sim.NewKernel()
					s, err := New(k, d, policy, mode)
					if err != nil {
						t.Fatal(err)
					}
					gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 13)
					warm := gen.WarmBlocks(s.Design.Ways())
					s.Warm(warm)
					g := warmedGolden(s, warm)
					accs := trace.Take(gen, 900)
					var reqs []*Request
					var want []outcome
					for _, a := range accs {
						col, set, tag := s.AM.ColumnOf(a.Addr), s.AM.SetOf(a.Addr), s.AM.TagOf(a.Addr)
						hit, pos, _, _ := g.Access(col, set, tag)
						want = append(want, outcome{hit, pos})
						reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
					}
					if err := s.Drain(50_000_000); err != nil {
						t.Fatal(err)
					}
					for i, r := range reqs {
						if r.Hit != want[i].hit || (r.Hit && r.HitBank != want[i].bank) {
							t.Fatalf("access %d (%#x): sim (%v,%d) vs golden (%v,%d)",
								i, accs[i].Addr, r.Hit, r.HitBank, want[i].hit, want[i].bank)
						}
					}
				})
			}
		}
	}
}

// TestExtraDesignsDeterministic pins run-to-run determinism on the new
// topologies: two identical runs must produce byte-identical outcome
// streams (the bankMux fan-out order is part of the contract).
func TestExtraDesignsDeterministic(t *testing.T) {
	for _, id := range []string{"R", "G"} {
		d, err := config.DesignByID(id)
		if err != nil {
			t.Fatal(err)
		}
		run := func() []int64 {
			k := sim.NewKernel()
			s, err := New(k, d, FastLRU, Multicast)
			if err != nil {
				t.Fatal(err)
			}
			gen := trace.NewSynthetic(mustProfile(t, "twolf"), s.AM, 7)
			s.Warm(gen.WarmBlocks(s.Design.Ways()))
			var reqs []*Request
			for _, a := range trace.Take(gen, 600) {
				reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
			}
			if err := s.Drain(50_000_000); err != nil {
				t.Fatal(err)
			}
			out := make([]int64, len(reqs))
			for i, r := range reqs {
				out[i] = r.DataAt
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("design %s: completion time diverges at access %d: %d vs %d", id, i, a[i], b[i])
			}
		}
	}
}
