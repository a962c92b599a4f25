package network

import (
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// TestXYXNoDeadlockUnderSaturation empirically exercises the channel-order
// proof: saturate a simplified mesh with simultaneous downward requests
// and upward replies (the two XYX traffic classes) and require the
// network to drain completely.
func TestXYXNoDeadlockUnderSaturation(t *testing.T) {
	topo := topology.MustBuild("simplified-mesh", topology.Params{W: 8, H: 8, CoreX: 3, MemX: 3})
	r := newRig(topo)
	rng := sim.NewRNG(5)
	const N = 400
	for i := 0; i < N; i++ {
		col := rng.Intn(8)
		row := rng.Intn(8)
		n := topo.NodeAt(col, row)
		if i%2 == 0 {
			// Downward 5-flit data (requests, fills).
			p := r.net.NewPacket(flit.ReplaceBlock, topo.Core, n, flit.ToBank, uint64(i))
			r.net.Send(p, int64(i/8))
		} else {
			// Upward replies to the core.
			p := r.net.NewPacket(flit.HitData, n, topo.Core, flit.ToCore, uint64(i))
			r.net.Send(p, int64(i/8))
		}
	}
	r.run(t, 500000)
	st := r.net.Stats()
	if st.PacketsDelivered != N {
		t.Fatalf("delivered %d of %d packets", st.PacketsDelivered, N)
	}
}

// TestHaloHubArbitration drives all 16 spikes through the hub at once.
func TestHaloHubArbitration(t *testing.T) {
	topo := topology.MustBuild("halo", topology.Params{W: 16, H: 5})
	r := newRig(topo)
	const per = 10
	for s := 0; s < 16; s++ {
		for i := 0; i < per; i++ {
			// Requests out of the hub and replies back in, concurrently.
			out := r.net.NewPacket(flit.ReadReq, topo.Hub(), topo.Column(s)[4], flit.ToBank, uint64(s*100+i))
			out.PathDeliver = true
			r.net.Send(out, int64(i))
			in := r.net.NewPacket(flit.HitData, topo.Column(s)[2], topo.Hub(), flit.ToCore, uint64(s*100+i))
			r.net.Send(in, int64(i))
		}
	}
	r.run(t, 500000)
	// Every bank of every spike gets `per` multicast deliveries; the
	// core endpoint at the hub gets all replies.
	for s := 0; s < 16; s++ {
		for pos, n := range topo.Column(s) {
			if got := len(r.banks[n].got); got != per {
				t.Fatalf("spike %d pos %d got %d deliveries, want %d", s, pos, got, per)
			}
		}
	}
	if got := len(r.core.got); got != 16*per {
		t.Fatalf("hub core endpoint got %d, want %d", got, 16*per)
	}
}

// TestMinimalMeshRemovesPaperLinkCount checks the Section 4 arithmetic:
// the minimal mesh removes (n-2)^2 of the full mesh's directed links when
// the core and memory columns are adjacent.
func TestMinimalMeshRemovesPaperLinkCount(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		spec := topology.Params{W: n, H: n, CoreX: n/2 - 1, MemX: n / 2}
		full := topology.MustBuild("mesh", spec).CountLinks()
		minimal := topology.MustBuild("minimal-mesh", spec).CountLinks()
		if removed := full - minimal; removed != (n-2)*(n-2) {
			t.Errorf("n=%d: removed %d links, want (n-2)^2 = %d", n, removed, (n-2)*(n-2))
		}
	}
}

func TestMissingEndpointPanics(t *testing.T) {
	topo := topology.MustBuild("mesh", topology.Params{W: 4, H: 4, CoreX: 1, MemX: 2})
	k := sim.NewKernel()
	net := MustNew(k, topo, mustFor(topo), router.DefaultConfig())
	// No endpoints attached: delivery must panic loudly rather than
	// silently dropping protocol packets.
	net.Send(net.NewPacket(flit.ReadReq, topo.Core, topo.NodeAt(1, 3), flit.ToBank, 0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing endpoint")
		}
	}()
	k.Run(1000)
}

// TestInjectionFairness: packets injected to different destinations from
// one node all make progress (no VC starvation at the injection port).
func TestInjectionFairness(t *testing.T) {
	r := newRig(mesh16())
	for i := 0; i < 64; i++ {
		dst := r.topo.NodeAt(i%16, 15)
		r.net.Send(r.net.NewPacket(flit.ReplaceBlock, r.topo.Core, dst, flit.ToBank, uint64(i)), 0)
	}
	r.run(t, 100000)
	for i := 0; i < 16; i++ {
		if got := len(r.banks[r.topo.NodeAt(i, 15)].got); got != 4 {
			t.Fatalf("column %d received %d packets, want 4", i, got)
		}
	}
}
