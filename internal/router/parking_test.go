package router

import (
	"slices"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/topology"
)

// clock keeps a kernel stepping one cycle at a time: registered after
// the routers it ticks last, and it stays active until stopped, so two
// kernels that schedule their routers differently still reach every
// cycle on the same Step.
type clock struct{ stop bool }

func (c *clock) Tick(int64) bool { return !c.stop }

// withClock registers a clock on f's kernel and returns it.
func (f *fabric) withClock() *clock {
	c := &clock{}
	f.k.Activate(f.k.Register(c))
	return c
}

// drained reports whether no router of f buffers a flit.
func (f *fabric) drained() bool {
	for _, r := range f.rs {
		if r.occ > 0 {
			return false
		}
	}
	return true
}

// parkingCase is a traffic pattern and the router pipeline depth it runs
// at.
type parkingCase struct {
	traffic
	stages int
}

// parkingTraffic is the saturated waves of saturatingTraffic on fabrics
// where flits spend cycles in flight: the mesh and halo as they are, an
// H2 chiplet fabric whose links all take 2 cycles, and the mesh with a
// 2-stage router pipeline.
func parkingTraffic() []parkingCase {
	h2 := topology.MustBuild("hier", topology.Params{W: 16, H: 4, Chiplets: 2, CoreX: 3, MemX: 3,
		HorizDelay: 2, VertDelay: []int{2}})
	h2Waves := traffic{"h2", h2, 21, func(f *fabric, n int) int {
		if n != 0 && n != 21 {
			return 0
		}
		want := 0
		for i := 0; i < 4; i++ {
			for col := 0; col < 16; col++ {
				// Down a column of either chiplet with a replica at each of
				// its 4 banks, back to the core, and across the bridge ring.
				f.send(flit.ReplaceBlock, h2.Core, h2.NodeAt(col, 3), true)
				f.send(flit.HitData, h2.NodeAt(col, 3-i), h2.Core, false)
				f.send(flit.ReadReq, h2.NodeAt(15-col, i), h2.NodeAt(col, 3-i), false)
				want += 4 + 1 + 1
			}
		}
		return want
	}}
	var cases []parkingCase
	for _, tc := range append(saturatingTraffic(), h2Waves) {
		cases = append(cases, parkingCase{tc, 1})
	}
	staged := cases[0]
	staged.name, staged.stages = "mesh4x4-stages2", 2
	return append(cases, staged)
}

// TestParkingMatchesEagerWakeups: a router sleeps until its next flit is
// ready, and no credit return wakes it. The wakeEager seam restores the
// rule before parking (active while any flit is buffered, neighbours
// woken the next cycle, an upstream holding a flit woken by a credit
// return).
// Stepped cycle by cycle in lockstep with a parked fabric, the eager one
// must eject the same packets at the same nodes on the same cycles and
// hold the same router state — Stats, CreditStalls and ReplicaBlocked
// included — after every cycle, while the parked fabric never ticks a
// router with no ready front flit, and ticks fewer routers wherever flits
// spend cycles in flight.
func TestParkingMatchesEagerWakeups(t *testing.T) {
	for _, tc := range parkingTraffic() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Stages = tc.stages
			parked, eager := newFabric(tc.topo, cfg), newFabric(tc.topo, cfg)
			for _, r := range eager.rs {
				r.wakeEager = true
			}
			clocks := []*clock{parked.withClock(), eager.withClock()}
			want := 0
			for n := 0; n <= tc.last || !parked.drained() || !eager.drained(); n++ {
				want += tc.inject(parked, n)
				tc.inject(eager, n)
				parked.k.Step()
				eager.k.Step()
				if parked.k.Now() != eager.k.Now() {
					t.Fatalf("step %d: the clocks fell out of lockstep (%d vs %d)", n, parked.k.Now(), eager.k.Now())
				}
				for i, r := range parked.rs {
					if e := eager.rs[i]; !sameDecisions(r, e) {
						t.Fatalf("cycle %d, router %d: state differs\nparked stats %+v\neager  stats %+v", parked.k.Now(), r.ID, r.stats, e.stats)
					}
					if r.unready != 0 {
						t.Fatalf("cycle %d, router %d: ticked with no ready front flit", parked.k.Now(), r.ID)
					}
				}
				if !slices.Equal(parked.ejected, eager.ejected) {
					t.Fatalf("cycle %d: ejections differ:\nparked %v\neager  %v", parked.k.Now(), parked.ejected, eager.ejected)
				}
				if n > 100000 {
					t.Fatal("did not drain")
				}
			}
			for _, c := range clocks {
				c.stop = true
			}
			parked.k.Step()
			if !parked.k.Idle() {
				t.Fatal("parked fabric still has a router scheduled after the drain")
			}
			if len(parked.ejected) != want {
				t.Fatalf("delivered %d packets, want %d", len(parked.ejected), want)
			}
			var st Stats
			var ticks, eagerTicks uint64
			for i, r := range parked.rs {
				st.Merge(r.stats)
				ticks += r.ticks
				eagerTicks += eager.rs[i].ticks
				checkDrained(t, r)
			}
			t.Logf("router ticks: %d parked, %d eager", ticks, eagerTicks)
			if st.CreditStalls == 0 || st.ReplicasSpawned == 0 {
				t.Fatalf("traffic neither stalled nor replicated, so the run proves little: %+v", st)
			}
			if ticks > eagerTicks || (tc.name != "mesh4x4" && ticks == eagerTicks) {
				t.Fatalf("parking ticked %d routers, the eager rule %d", ticks, eagerTicks)
			}
		})
	}
}

// TestCreditReturnWakesNoRouter: a credit return schedules nothing. On a
// line whose 3-cycle links keep flits in flight while credits flow back,
// no router ticks without a ready front flit — neither a drained one nor
// one whose flits are all still crossing a link — the kernel goes idle
// on the very cycle the last flit ejects, and every credit is back.
func TestCreditReturnWakesNoRouter(t *testing.T) {
	f := newFabric(topology.MustBuild("mesh", topology.Params{W: 3, H: 1, CoreX: 0, MemX: 2, HorizDelay: 3}), DefaultConfig())
	for i := 0; i < 3; i++ {
		f.send(flit.HitData, 0, 2, false) // 5 flits each down the line
		f.send(flit.HitData, 2, 0, false) // and back up it
	}
	for !f.drained() {
		if !f.k.Step() {
			t.Fatal("kernel idle with flits still buffered")
		}
		for _, r := range f.rs {
			if r.unready != 0 {
				t.Fatalf("cycle %d: router %d ticked with no ready front flit", f.k.Now(), r.ID)
			}
		}
	}
	if !f.k.Idle() {
		t.Fatalf("cycle %d: the tail ejected but the kernel still has a router scheduled", f.k.Now())
	}
	if len(f.ejected) != 6 || f.rs[1].Stats().FlitsRouted != 30 {
		t.Fatalf("delivered %d packets, the middle router moved %d flits", len(f.ejected), f.rs[1].Stats().FlitsRouted)
	}
	for _, r := range f.rs {
		checkDrained(t, r) // every credit is back although nobody was woken for it
		before := r.Stats()
		if r.Tick(f.k.Now()+1) || r.Stats() != before {
			t.Fatalf("router %d: tick of an empty router did something (stats %+v -> %+v)", r.ID, before, r.Stats())
		}
	}
}

// TestInjectionRingsCarvedForABurst: a router carves its injection VCs
// at injRingFlits and its neighbour-fed VCs at BufDepth, so a burst of
// four block packets per injection VC does not regrow a ring.
func TestInjectionRingsCarvedForABurst(t *testing.T) {
	p := newPair(DefaultConfig())
	r := p.a
	inj := r.numPorts * r.nVC
	for i := range r.vcs {
		want := r.bufDepth
		if i >= inj {
			want = injRingFlits
		}
		if got := cap(r.vcs[i].q.buf); got != want {
			t.Fatalf("vc %d: ring capacity %d, want %d", i, got, want)
		}
	}
	bufs := make([]*entry, r.nVC)
	for vc := range bufs {
		bufs[vc] = &r.vcs[inj+vc].q.buf[0]
	}
	for i := 0; i < 4*r.nVC; i++ {
		r.Inject(&flit.Packet{Kind: flit.HitData, Src: 0, Dst: 1, DstEp: flit.ToBank}, 0)
	}
	for vc, b := range bufs {
		if q := &r.vcs[inj+vc].q; q.len() != injRingFlits || &q.buf[0] != b {
			t.Fatalf("injection vc %d: %d flits, ring regrown %v", vc, q.len(), &q.buf[0] != b)
		}
	}
}
