package router

import (
	"math/bits"
	"slices"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// fabric wires one wormhole router per node of topo, as the network
// package does, with an endpoint that logs every delivery.
type fabric struct {
	k       *sim.Kernel
	rs      []*Router
	ejected []ejection
	nextID  uint64
}

// ejection is one packet delivered to a router's local endpoint.
type ejection struct {
	pkt   uint64
	node  topology.NodeID
	cycle int64
}

func newFabric(topo *topology.Topology, cfg Config) *fabric {
	alg, err := routing.For(topo)
	if err != nil {
		panic(err)
	}
	tb := mustTable(topo, alg)
	f := &fabric{k: sim.NewKernel(), rs: make([]*Router, topo.NumNodes())}
	for id := range f.rs {
		f.rs[id] = New(id, topo, tb, cfg, f.k, nil)
	}
	for id, r := range f.rs {
		for p := 0; p < topo.NumPorts(id); p++ {
			if l, ok := topo.Link(id, p); ok {
				r.Wire(p, f.rs[l.To], l.ToPort, l.Delay)
			}
		}
	}
	sink := sinkFunc(func(node topology.NodeID, p *flit.Packet, now int64) {
		f.ejected = append(f.ejected, ejection{p.ID, node, now})
	})
	for _, r := range f.rs {
		r.SetKernelID(f.k.Register(r))
		r.SetSink(sink)
	}
	return f
}

func (f *fabric) send(kind flit.Kind, src, dst topology.NodeID, multicast bool) {
	f.nextID++
	f.rs[src].Inject(&flit.Packet{ID: f.nextID, Kind: kind, Src: src, Dst: dst, DstEp: flit.ToBank, PathDeliver: multicast}, f.k.Now())
}

// traffic is a pattern the router tests drive through a fabric: inject
// runs once n kernel steps have been taken, for every n up to last, and
// returns the deliveries it adds.
type traffic struct {
	name   string
	topo   *topology.Topology
	last   int
	inject func(f *fabric, n int) int
}

// drive injects tc into every fabric of fs and steps their kernels in
// lockstep until they idle with nothing left to inject, calling check
// after every step. It returns the deliveries tc expects of each.
func (tc traffic) drive(t *testing.T, check func(), fs ...*fabric) int {
	t.Helper()
	want := 0
	for n := 0; ; n++ {
		for i, f := range fs {
			if w := tc.inject(f, n); i == 0 {
				want += w
			}
		}
		stepped := fs[0].k.Step()
		for _, f := range fs[1:] {
			if f.k.Step() != stepped {
				t.Fatalf("step %d: the kernels fell out of lockstep", n)
			}
		}
		if stepped {
			check()
		} else if n >= tc.last {
			return want
		}
		if n > 100000 {
			t.Fatal("did not drain")
		}
	}
}

// saturatingTraffic is two waves of unicast plus path-multicast packets,
// the second injected into routers that are mid-flight: on a 4x4 mesh,
// and on a 16-spike halo whose hub has 17 PCs x 4 VCs = 68 VCs, so its
// injection VCs live in the second mask word.
func saturatingTraffic() []traffic {
	mesh := topology.MustBuild("mesh", topology.Params{W: 4, H: 4, CoreX: 1, MemX: 2})
	halo := topology.MustBuild("halo", topology.Params{W: 16, H: 5})
	waves := func(wave func(f *fabric) int) func(f *fabric, n int) int {
		return func(f *fabric, n int) int {
			if n == 0 || n == 21 {
				return wave(f)
			}
			return 0
		}
	}
	return []traffic{
		{"mesh4x4", mesh, 21, waves(func(f *fabric) int {
			want := 0
			for i := 0; i < 4; i++ {
				for col := 0; col < 4; col++ {
					// Down a column with a replica at each of its 4 banks
					// (the last one is the packet itself), and back up.
					f.send(flit.ReplaceBlock, mesh.Core, mesh.NodeAt(col, 3), true)
					f.send(flit.HitData, mesh.NodeAt(col, 3-i), mesh.Core, false)
					f.send(flit.ReadReq, mesh.NodeAt(3-col, i), mesh.NodeAt(col, 3-i), false)
					want += 4 + 1 + 1
				}
			}
			return want
		})},
		{"halo16", halo, 21, waves(func(f *fabric) int {
			want := 0
			for i := 0; i < 4; i++ {
				for s := 0; s < 16; s++ {
					f.send(flit.ReplaceBlock, halo.Hub(), halo.Column(s)[4], true)
					f.send(flit.HitData, halo.Column(s)[2+i%3], halo.Hub(), false)
					want += 5 + 1
				}
			}
			return want
		})},
	}
}

// checkMasks asserts that every work mask of r says exactly what the VC
// state it summarizes says.
func checkMasks(t *testing.T, r *Router) {
	t.Helper()
	nw := len(r.occMask)
	bit := func(words []uint64, idx int) bool { return words[idx>>6]>>(idx&63)&1 != 0 }
	occ := 0
	for idx := range r.vcs {
		v := &r.vcs[idx]
		occ += v.q.len()
		if got, want := bit(r.occMask, idx), v.q.len() > 0; got != want {
			t.Fatalf("router %d vc %d: occMask bit %v, queue length %d", r.ID, idx, got, v.q.len())
		}
		if got, want := bit(r.ejMask, idx), v.route == ejectOut; got != want {
			t.Fatalf("router %d vc %d: ejMask bit %v, route %d", r.ID, idx, got, v.route)
		}
		for o := 0; o < r.numPorts; o++ {
			if got, want := bit(r.reqMask[o*nw:][:nw], idx), int(v.route) == o; got != want {
				t.Fatalf("router %d vc %d: reqMask[%d] bit %v, route %d", r.ID, idx, o, got, v.route)
			}
		}
	}
	if occ != r.occ {
		t.Fatalf("router %d: occ %d, queues hold %d flits", r.ID, r.occ, occ)
	}
	for o, n := range r.reqCnt {
		pop := 0
		for _, w := range r.reqMask[o*nw:][:nw] {
			pop += bits.OnesCount64(w)
		}
		if n != pop {
			t.Fatalf("router %d: reqCnt[%d] = %d, reqMask holds %d bits", r.ID, o, n, pop)
		}
	}
}

// checkDrained asserts the rest state: no flit, no route, no mask bit,
// every credit and downstream VC handed back.
func checkDrained(t *testing.T, r *Router) {
	t.Helper()
	checkMasks(t, r)
	for _, words := range [][]uint64{r.occMask, r.ejMask, r.reqMask} {
		for _, w := range words {
			if w != 0 {
				t.Fatalf("router %d: mask word %#x left set at drain", r.ID, w)
			}
		}
	}
	for i, c := range r.credits {
		if c != r.bufDepth || r.owner[i] != nil {
			t.Fatalf("router %d out-VC %d: %d credits (want %d), owner %v", r.ID, i, c, r.bufDepth, r.owner[i])
		}
	}
}

// TestRouterMaskInvariants steps saturating unicast plus path-multicast
// traffic one kernel cycle at a time and checks every router's masks
// after every cycle.
func TestRouterMaskInvariants(t *testing.T) {
	for _, tc := range saturatingTraffic() {
		t.Run(tc.name, func(t *testing.T) {
			f := newFabric(tc.topo, DefaultConfig())
			if tc.name == "halo16" {
				if hub := f.rs[tc.topo.Hub()]; len(hub.occMask) != 2 {
					t.Fatalf("hub has %d mask words, want 2", len(hub.occMask))
				}
			}
			want := tc.drive(t, func() {
				for _, r := range f.rs {
					checkMasks(t, r)
				}
			}, f)
			var st Stats
			for _, r := range f.rs {
				st.Merge(r.Stats())
			}
			if st.CreditStalls == 0 || st.ReplicasSpawned == 0 {
				t.Fatalf("traffic neither stalled nor replicated, so the run proves little: %+v", st)
			}
			if len(f.ejected) != want {
				t.Fatalf("delivered %d packets, want %d", len(f.ejected), want)
			}
			for _, r := range f.rs {
				checkDrained(t, r)
			}
		})
	}
}

// sameDecisions reports whether a and b hold the same state arbitration
// decides: counters, round-robin pointers, downstream credits and
// claims, and every VC's occupancy, route and allocations.
func sameDecisions(a, b *Router) bool {
	if a.stats != b.stats || a.replRR != b.replRR || a.injVC != b.injVC ||
		!slices.Equal(a.rrOut, b.rrOut) || !slices.Equal(a.credits, b.credits) {
		return false
	}
	for i := range a.owner {
		if (a.owner[i] == nil) != (b.owner[i] == nil) {
			return false
		}
	}
	for i := range a.vcs {
		v, w := &a.vcs[i], &b.vcs[i]
		if v.q.len() != w.q.len() || v.route != w.route || v.outVC != w.outVC ||
			v.repl != w.repl || v.replNeed != w.replNeed {
			return false
		}
	}
	return true
}

// TestOneVCTickMatchesArbitration: a tick that finds a single occupied VC
// skips arbitration. A fabric forced through the general three-phase
// path on every tick, stepped in lockstep, must hold the same router
// state after every cycle and eject the same packets at the same nodes
// on the same cycles — on the saturated waves, where both paths run, and
// on a light stream of mostly lone packets.
func TestOneVCTickMatchesArbitration(t *testing.T) {
	mesh := topology.MustBuild("mesh", topology.Params{W: 4, H: 4, CoreX: 1, MemX: 2})
	light := traffic{"light-mesh4x4", mesh, 600, func(f *fabric, n int) int {
		if n%8 != 0 {
			return 0
		}
		col := n / 8 % 4
		switch n / 8 % 3 {
		case 0:
			f.send(flit.ReplaceBlock, mesh.Core, mesh.NodeAt(col, 3), true)
			return 4
		case 1:
			f.send(flit.HitData, mesh.NodeAt(col, 2), mesh.Core, false)
		default:
			f.send(flit.ReadReq, mesh.NodeAt(col, 0), mesh.NodeAt(3-col, 3), false)
		}
		return 1
	}}
	for _, tc := range append(saturatingTraffic(), light) {
		t.Run(tc.name, func(t *testing.T) {
			one, general := newFabric(tc.topo, DefaultConfig()), newFabric(tc.topo, DefaultConfig())
			for _, r := range general.rs {
				r.arbitrateAlways = true
			}
			held, oneVC := 0, 0
			want := tc.drive(t, func() {
				for i, r := range one.rs {
					if g := general.rs[i]; !sameDecisions(r, g) {
						t.Fatalf("cycle %d, router %d: state differs\none-VC path stats %+v, rrOut %v\ngeneral     stats %+v, rrOut %v",
							one.k.Now(), r.ID, r.stats, r.rrOut, g.stats, g.rrOut)
					}
					if r.occ > 0 {
						held++
						if r.soleVC() >= 0 {
							oneVC++
						}
					}
				}
			}, one, general)
			t.Logf("%d of %d cycles a router held flits, they sat in a single VC", oneVC, held)
			if oneVC == 0 {
				t.Fatal("no router ever held a single occupied VC, so the run proves little")
			}
			if len(one.ejected) != want {
				t.Fatalf("delivered %d packets, want %d", len(one.ejected), want)
			}
			if !slices.Equal(one.ejected, general.ejected) {
				t.Fatalf("ejections differ:\none-VC path %v\ngeneral     %v", one.ejected, general.ejected)
			}
		})
	}
}
