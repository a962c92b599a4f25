package router

import (
	"math/bits"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// fabric wires one wormhole router per node of topo, as the network
// package does, with an endpoint that only counts deliveries.
type fabric struct {
	k         *sim.Kernel
	rs        []*Router
	delivered int
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
	for _, r := range f.rs {
		r.SetKernelID(f.k.Register(r))
		r.SetDeliver(func(*flit.Packet, int64) { f.delivered++ })
	}
	return f
}

func (f *fabric) send(kind flit.Kind, src, dst topology.NodeID, multicast bool) {
	f.rs[src].Inject(&flit.Packet{Kind: kind, Src: src, Dst: dst, DstEp: flit.ToBank, PathDeliver: multicast}, f.k.Now())
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
// after every cycle. The halo hub has 17 PCs x 4 VCs = 68 VCs, so its
// injection VCs live in the second mask word.
func TestRouterMaskInvariants(t *testing.T) {
	mesh := topology.NewMesh(topology.MeshSpec{W: 4, H: 4, CoreX: 1, MemX: 2})
	halo := topology.NewHalo(topology.HaloSpec{Spikes: 16, Length: 5})
	for _, tc := range []struct {
		name string
		topo *topology.Topology
		wave func(f *fabric) int // injects one wave, returns expected deliveries
	}{
		{"mesh4x4", mesh, func(f *fabric) int {
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
		}},
		{"halo16", halo, func(f *fabric) int {
			want := 0
			for i := 0; i < 4; i++ {
				for s := 0; s < 16; s++ {
					f.send(flit.ReplaceBlock, halo.Hub(), halo.Column(s)[4], true)
					f.send(flit.HitData, halo.Column(s)[2+i%3], halo.Hub(), false)
					want += 5 + 1
				}
			}
			return want
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFabric(tc.topo, DefaultConfig())
			if tc.topo == halo && len(f.rs[halo.Hub()].occMask) != 2 {
				t.Fatalf("hub has %d mask words, want 2", len(f.rs[halo.Hub()].occMask))
			}
			want := tc.wave(f)
			for steps := 0; f.k.Step(); steps++ {
				for _, r := range f.rs {
					checkMasks(t, r)
				}
				if steps == 20 {
					want += tc.wave(f) // inject into routers that are mid-flight
				}
				if steps > 100000 {
					t.Fatal("did not drain")
				}
			}
			var st Stats
			for _, r := range f.rs {
				st.Merge(r.Stats())
			}
			if st.CreditStalls == 0 || st.ReplicasSpawned == 0 {
				t.Fatalf("traffic neither stalled nor replicated, so the run proves little: %+v", st)
			}
			if f.delivered != want {
				t.Fatalf("delivered %d packets, want %d", f.delivered, want)
			}
			for _, r := range f.rs {
				checkDrained(t, r)
			}
		})
	}
}

// TestCreditReturnDoesNotWakeDrainedRouter: a credit returned to a router
// that holds no flit schedules nothing, so the kernel goes idle on the
// very cycle the last flit ejects, and ticking an empty router is a no-op.
func TestCreditReturnDoesNotWakeDrainedRouter(t *testing.T) {
	f := newFabric(topology.NewMesh(topology.MeshSpec{W: 3, H: 1, CoreX: 0, MemX: 2}), DefaultConfig())
	f.send(flit.HitData, 0, 2, false) // 5 flits down the line
	buffered := func() (n int) {
		for _, r := range f.rs {
			n += r.Occupancy()
		}
		return n
	}
	for buffered() > 0 {
		if !f.k.Step() {
			t.Fatal("kernel idle with flits still buffered")
		}
	}
	if !f.k.Idle() {
		t.Fatalf("cycle %d: the tail ejected but the kernel still has a router scheduled", f.k.Now())
	}
	if f.delivered != 1 || f.rs[2].Stats().FlitsRouted != 5 {
		t.Fatalf("delivered %d packets, last router moved %d flits", f.delivered, f.rs[2].Stats().FlitsRouted)
	}
	for _, r := range f.rs {
		checkDrained(t, r) // every credit is back although nobody was woken for it
		before := r.Stats()
		if r.Tick(f.k.Now()+1) || r.Stats() != before {
			t.Fatalf("router %d: tick of an empty router did something (stats %+v -> %+v)", r.ID, before, r.Stats())
		}
	}
}
