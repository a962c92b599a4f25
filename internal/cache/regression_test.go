package cache

import (
	"testing"

	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

// TestMulticastReplicaReordering is a regression test for a protocol race:
// the probe replica at the MRU bank (which shares its router with the
// congested core ejection interface) can be overtaken by the returning
// hit-block store. Agents must stash replacement traffic until their probe
// has run. A long hot-set run on a small mesh reproduces the reordering.
func TestMulticastReplicaReordering(t *testing.T) {
	d := testDesign(4, 4)
	for _, policy := range []Policy{FastLRU, LRU, Promotion} {
		k := sim.NewKernel()
		s := MustNew(k, d, policy, Multicast)
		p, _ := trace.ProfileByName("gcc")
		gen := trace.NewSynthetic(p, s.AM, 1)
		warm := gen.WarmBlocks(s.Design.Ways())
		s.Warm(warm)
		g := warmedGolden(s, warm)
		var reqs []*Request
		var want []outcome
		for _, a := range trace.Take(gen, 4000) {
			col, set, tag := s.AM.ColumnOf(a.Addr), s.AM.SetOf(a.Addr), s.AM.TagOf(a.Addr)
			hit, pos, _, _ := g.Access(col, set, tag)
			want = append(want, outcome{hit, pos})
			reqs = append(reqs, s.Issue(a.Addr, a.Write, nil))
		}
		if err := s.Drain(500_000_000); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i, r := range reqs {
			if r.Hit != want[i].hit || (r.Hit && r.HitBank != want[i].bank) {
				t.Fatalf("%v access %d: sim (%v,%d) vs golden (%v,%d)",
					policy, i, r.Hit, r.HitBank, want[i].hit, want[i].bank)
			}
		}
	}
}
