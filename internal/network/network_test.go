package network

import (
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// collector records deliveries. It copies each packet: NewPacket's are
// recycled once Deliver returns (see Endpoint).
type collector struct {
	got []delivery
}

type delivery struct {
	pkt flit.Packet
	at  int64
}

func (c *collector) Deliver(pkt *flit.Packet, now int64) {
	c.got = append(c.got, delivery{*pkt, now})
}

// ownPacket builds a caller-owned packet for the tests that read the
// network's Injected/Delivered stamps after the run: a NewPacket packet
// is back in the pool by then and may already be another message.
func ownPacket(kind flit.Kind, src, dst topology.NodeID, ep flit.Endpoint, addr uint64) *flit.Packet {
	return &flit.Packet{Kind: kind, Src: src, Dst: dst, DstEp: ep, Addr: addr}
}

// rig builds a network with one collector attached as the bank endpoint of
// every node, plus core/mem endpoints at their routers.
type rig struct {
	k     *sim.Kernel
	topo  *topology.Topology
	net   *Network
	banks []*collector
	core  *collector
	mem   *collector
}

func newRig(topo *topology.Topology) *rig {
	k := sim.NewKernel()
	n := MustNew(k, topo, mustFor(topo), router.DefaultConfig())
	r := &rig{k: k, topo: topo, net: n, core: &collector{}, mem: &collector{}}
	r.banks = make([]*collector, topo.NumNodes())
	for id := 0; id < topo.NumNodes(); id++ {
		r.banks[id] = &collector{}
		n.Attach(id, flit.ToBank, r.banks[id])
	}
	n.Attach(topo.Core, flit.ToCore, r.core)
	n.Attach(topo.Mem, flit.ToMem, r.mem)
	return r
}

func (r *rig) run(t *testing.T, budget int64) {
	t.Helper()
	if _, idle := r.k.Run(budget); !idle {
		t.Fatalf("network did not quiesce within %d cycles", budget)
	}
	if got := r.net.InFlight(); got != 0 {
		t.Fatalf("in-flight flits after quiescence = %d, want 0", got)
	}
}

func mustFor(topo *topology.Topology) routing.Algorithm {
	alg, err := routing.For(topo)
	if err != nil {
		panic(err)
	}
	return alg
}

func mesh16() *topology.Topology {
	return topology.NewMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 8})
}

func TestUnicastZeroLoadLatency(t *testing.T) {
	r := newRig(mesh16())
	dst := r.topo.NodeAt(7, 15)
	p := ownPacket(flit.ReadReq, r.topo.Core, dst, flit.ToBank, 0x40)
	r.net.Send(p, 0)
	r.run(t, 1000)
	got := r.banks[dst].got
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	// Single-cycle router: hops + 1 ejection cycle at zero load.
	if got[0].at != 16 {
		t.Fatalf("delivered at %d, want 16 (15 hops + eject)", got[0].at)
	}
	if p.Delivered != 16 || p.Injected != 0 {
		t.Fatalf("packet stamps = %d/%d", p.Injected, p.Delivered)
	}
}

func TestFiveFlitPacketLatency(t *testing.T) {
	r := newRig(mesh16())
	dst := r.topo.NodeAt(7, 15)
	p := r.net.NewPacket(flit.HitData, r.topo.Core, dst, flit.ToBank, 0x40)
	r.net.Send(p, 0)
	r.run(t, 1000)
	// Cut-through endpoint delivery: the head arrives like a 1-flit
	// packet; the 4 body flits drain behind it.
	if got := r.banks[dst].got[0].at; got != 16 {
		t.Fatalf("head delivered at %d, want 16", got)
	}
}

func TestWireDelayAddsLatency(t *testing.T) {
	topo := topology.NewMesh(topology.MeshSpec{W: 4, H: 4, CoreX: 1, MemX: 2, VertDelay: []int{3}})
	r := newRig(topo)
	dst := topo.NodeAt(1, 3)
	p := r.net.NewPacket(flit.ReadReq, topo.Core, dst, flit.ToBank, 0)
	r.net.Send(p, 0)
	r.run(t, 1000)
	// 3 vertical hops of 3 cycles each + eject.
	if got := r.banks[dst].got[0].at; got != 10 {
		t.Fatalf("delivered at %d, want 10", got)
	}
}

func TestSelfDelivery(t *testing.T) {
	r := newRig(mesh16())
	p := r.net.NewPacket(flit.ReadReq, r.topo.Core, r.topo.Core, flit.ToBank, 0)
	r.net.Send(p, 0)
	r.run(t, 100)
	if got := r.banks[r.topo.Core].got[0].at; got != 1 {
		t.Fatalf("self delivery at %d, want 1", got)
	}
}

func TestMulticastColumnDelivery(t *testing.T) {
	r := newRig(mesh16())
	col := 7
	last := r.topo.NodeAt(col, 15)
	p := r.net.NewPacket(flit.ReadReq, r.topo.Core, last, flit.ToBank, 0x1c0)
	p.PathDeliver = true
	r.net.Send(p, 0)
	r.run(t, 1000)

	var prev int64 = -1
	for row := 0; row < 16; row++ {
		n := r.topo.NodeAt(col, row)
		got := r.banks[n].got
		if len(got) != 1 {
			t.Fatalf("row %d: deliveries = %d, want 1", row, len(got))
		}
		if got[0].pkt.Addr != 0x1c0 {
			t.Fatalf("row %d: wrong addr", row)
		}
		if got[0].at < prev {
			t.Fatalf("row %d delivered at %d, before previous %d", row, got[0].at, prev)
		}
		prev = got[0].at
	}
	// The final bank receives the original; earlier rows get replicas at
	// roughly one cycle per hop.
	if final := r.banks[last].got[0].at; final != 16 {
		t.Fatalf("final bank delivered at %d, want 16", final)
	}
	st := r.net.Stats()
	if st.Router.ReplicasSpawned != 15 {
		t.Fatalf("replicas spawned = %d, want 15", st.Router.ReplicasSpawned)
	}
	// Banks off the column must see nothing.
	for row := 0; row < 16; row++ {
		if n := r.topo.NodeAt(3, row); len(r.banks[n].got) != 0 {
			t.Fatalf("off-column bank received a replica")
		}
	}
}

func TestMulticastOnSimplifiedMesh(t *testing.T) {
	topo := topology.NewSimplifiedMesh(topology.MeshSpec{W: 16, H: 16, CoreX: 7, MemX: 7})
	r := newRig(topo)
	last := topo.NodeAt(2, 15)
	p := r.net.NewPacket(flit.ReadReq, topo.Core, last, flit.ToBank, 0x80)
	p.PathDeliver = true
	r.net.Send(p, 0)
	r.run(t, 1000)
	for row := 0; row < 16; row++ {
		if got := r.banks[topo.NodeAt(2, row)].got; len(got) != 1 {
			t.Fatalf("row %d deliveries = %d, want 1", row, len(got))
		}
	}
}

func TestMulticastOnHaloSpike(t *testing.T) {
	topo := topology.NewHalo(topology.HaloSpec{Spikes: 16, Length: 16})
	r := newRig(topo)
	spike := 5
	last := topo.Column(spike)[15]
	p := r.net.NewPacket(flit.ReadReq, topo.Hub(), last, flit.ToBank, 0x140)
	p.PathDeliver = true
	r.net.Send(p, 0)
	r.run(t, 1000)
	for pos, n := range topo.Column(spike) {
		if got := r.banks[n].got; len(got) != 1 {
			t.Fatalf("spike pos %d deliveries = %d, want 1", pos, len(got))
		}
	}
}

func TestManyPacketsConserved(t *testing.T) {
	r := newRig(mesh16())
	const N = 200
	rng := sim.NewRNG(99)
	for i := 0; i < N; i++ {
		dst := rng.Intn(r.topo.NumNodes())
		kind := flit.ReadReq
		if rng.Bool(0.5) {
			kind = flit.ReplaceBlock
		}
		p := r.net.NewPacket(kind, r.topo.Core, dst, flit.ToBank, uint64(i)*64)
		r.net.Send(p, int64(i/4))
	}
	r.run(t, 100000)
	st := r.net.Stats()
	if st.PacketsInjected != N {
		t.Fatalf("injected = %d, want %d", st.PacketsInjected, N)
	}
	if st.PacketsDelivered != N {
		t.Fatalf("delivered = %d, want %d", st.PacketsDelivered, N)
	}
	total := 0
	for _, b := range r.banks {
		total += len(b.got)
	}
	if total != N {
		t.Fatalf("endpoint deliveries = %d, want %d", total, N)
	}
}

func TestContentionSerializesOutput(t *testing.T) {
	// Two 5-flit packets fighting for the same path share link
	// bandwidth: heads arrive staggered, and the network stays busy
	// until all 10 flits drain through the 15-hop path.
	r := newRig(mesh16())
	dst := r.topo.NodeAt(7, 15)
	p1 := r.net.NewPacket(flit.HitData, r.topo.Core, dst, flit.ToBank, 0)
	p2 := r.net.NewPacket(flit.HitData, r.topo.Core, dst, flit.ToBank, 64)
	r.net.Send(p1, 0)
	r.net.Send(p2, 0)
	r.run(t, 1000)
	got := r.banks[dst].got
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	if got[1].at <= got[0].at {
		t.Fatalf("heads not staggered: %d then %d", got[0].at, got[1].at)
	}
	// Drain time: the second tail needs at least 15 hops + 9 extra
	// flit-times of serialization on the shared links.
	if r.k.Now() < 24 {
		t.Fatalf("network drained at %d, want >= 24 (bandwidth sharing)", r.k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		r := newRig(mesh16())
		rng := sim.NewRNG(7)
		for i := 0; i < 100; i++ {
			dst := rng.Intn(r.topo.NumNodes())
			p := r.net.NewPacket(flit.ReplaceBlock, r.topo.Core, dst, flit.ToBank, uint64(i))
			p.PathDeliver = false
			r.net.Send(p, int64(i))
		}
		r.run(t, 100000)
		var times []int64
		for _, b := range r.banks {
			for _, d := range b.got {
				times = append(times, d.at, int64(d.pkt.ID))
			}
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different delivery counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic delivery schedule")
		}
	}
}

func TestCoreAndMemEndpoints(t *testing.T) {
	r := newRig(mesh16())
	p1 := r.net.NewPacket(flit.MissNotify, r.topo.NodeAt(3, 9), r.topo.Core, flit.ToCore, 0)
	p2 := r.net.NewPacket(flit.WriteBack, r.topo.NodeAt(8, 15), r.topo.Mem, flit.ToMem, 0)
	r.net.Send(p1, 0)
	r.net.Send(p2, 0)
	r.run(t, 1000)
	if len(r.core.got) != 1 || r.core.got[0].pkt.Kind != flit.MissNotify {
		t.Fatal("core endpoint did not receive its packet")
	}
	if len(r.mem.got) != 1 || r.mem.got[0].pkt.Kind != flit.WriteBack {
		t.Fatal("mem endpoint did not receive its packet")
	}
}

func TestHeavyMulticastLoadCompletes(t *testing.T) {
	// Saturate one column with multicasts and unicasts; hybrid
	// replication must make progress (possibly with blocked cycles).
	r := newRig(mesh16())
	for i := 0; i < 50; i++ {
		p := r.net.NewPacket(flit.ReadReq, r.topo.Core, r.topo.NodeAt(7, 15), flit.ToBank, uint64(i)*64)
		p.PathDeliver = true
		r.net.Send(p, int64(i))
	}
	r.run(t, 100000)
	for row := 0; row < 16; row++ {
		if got := len(r.banks[r.topo.NodeAt(7, row)].got); got != 50 {
			t.Fatalf("row %d deliveries = %d, want 50", row, got)
		}
	}
	st := r.net.Stats()
	if st.Router.ReplicasSpawned != 50*15 {
		t.Fatalf("replicas = %d, want %d", st.Router.ReplicasSpawned, 50*15)
	}
}

func TestPipelinedRouterIsSlower(t *testing.T) {
	// Ablation knob: a 3-stage pipelined router must triple per-hop cost.
	topo := mesh16()
	k := sim.NewKernel()
	cfg := router.DefaultConfig()
	cfg.Stages = 3
	n := MustNew(k, topo, routing.XY{}, cfg)
	sink := &collector{}
	dst := topo.NodeAt(7, 15)
	for id := 0; id < topo.NumNodes(); id++ {
		n.Attach(id, flit.ToBank, sink)
	}
	p := ownPacket(flit.ReadReq, topo.Core, dst, flit.ToBank, 0)
	n.Send(p, 0)
	k.Run(10000)
	if p.Delivered != 16*3 {
		t.Fatalf("3-stage delivery at %d, want 48", p.Delivered)
	}
}
