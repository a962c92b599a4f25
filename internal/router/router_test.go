package router

import (
	"reflect"
	"strings"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// pair wires two routers of a 2x1 mesh directly (no network package).
type pair struct {
	k      *sim.Kernel
	topo   *topology.Topology
	a, b   *Router
	gotA   []*flit.Packet
	gotB   []*flit.Packet
	timesB []int64
}

func mustTable(topo *topology.Topology, alg routing.Algorithm) *routing.Table {
	tb, err := routing.Precompute(topo, alg)
	if err != nil {
		panic(err)
	}
	return tb
}

func newPair(cfg Config) *pair {
	p := &pair{k: sim.NewKernel()}
	p.topo = topology.NewMesh(topology.MeshSpec{W: 2, H: 1, CoreX: 0, MemX: 1})
	tb := mustTable(p.topo, routing.XY{})
	p.a = New(0, p.topo, tb, cfg, p.k, nil)
	p.b = New(1, p.topo, tb, cfg, p.k, nil)
	p.a.Wire(topology.PortEast, p.b, topology.PortWest, 1)
	p.b.Wire(topology.PortWest, p.a, topology.PortEast, 1)
	p.a.SetKernelID(p.k.Register(p.a))
	p.b.SetKernelID(p.k.Register(p.b))
	p.a.SetDeliver(func(pkt *flit.Packet, now int64) { p.gotA = append(p.gotA, pkt) })
	p.b.SetDeliver(func(pkt *flit.Packet, now int64) {
		p.gotB = append(p.gotB, pkt)
		p.timesB = append(p.timesB, now)
	})
	return p
}

func TestDirectDelivery(t *testing.T) {
	p := newPair(DefaultConfig())
	pkt := &flit.Packet{Kind: flit.ReadReq, Src: 0, Dst: 1, DstEp: flit.ToBank}
	p.a.Inject(pkt, 0)
	p.k.Run(100)
	if len(p.gotB) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(p.gotB))
	}
	// Inject at 0 -> depart a at 1 -> arrive b (delay 1) -> eject at 2.
	if p.timesB[0] != 2 {
		t.Fatalf("delivered at %d, want 2", p.timesB[0])
	}
	if p.a.Occupancy() != 0 || p.b.Occupancy() != 0 {
		t.Fatal("buffers must drain")
	}
}

func TestCreditBackpressureTinyBuffers(t *testing.T) {
	cfg := Config{VCsPerPC: 1, BufDepth: 1, Stages: 1}
	p := newPair(cfg)
	// Three 5-flit packets through a single 1-flit-deep VC: progress
	// requires credit returns every cycle; everything must still arrive
	// in order.
	for i := 0; i < 3; i++ {
		p.a.Inject(&flit.Packet{Kind: flit.HitData, Src: 0, Dst: 1,
			DstEp: flit.ToBank, Addr: uint64(i)}, 0)
	}
	if _, idle := p.k.Run(10000); !idle {
		t.Fatal("did not drain (credit loss or deadlock)")
	}
	if len(p.gotB) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(p.gotB))
	}
	for i, pkt := range p.gotB {
		if pkt.Addr != uint64(i) {
			t.Fatalf("out of order: %v", p.gotB)
		}
	}
	st := p.a.Stats()
	if st.FlitsRouted != 15 {
		t.Fatalf("router a moved %d flits, want 15", st.FlitsRouted)
	}
}

func TestSelfEjection(t *testing.T) {
	p := newPair(DefaultConfig())
	pkt := &flit.Packet{Kind: flit.ReadReq, Src: 0, Dst: 0, DstEp: flit.ToBank}
	p.a.Inject(pkt, 0)
	p.k.Run(100)
	if len(p.gotA) != 1 {
		t.Fatal("self-addressed packet must eject locally")
	}
}

func TestStagesDelayEachHop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = 4
	p := newPair(cfg)
	p.a.Inject(&flit.Packet{Kind: flit.ReadReq, Src: 0, Dst: 1, DstEp: flit.ToBank}, 0)
	p.k.Run(1000)
	// 4 cycles in a, then 4 in b before ejection.
	if p.timesB[0] != 8 {
		t.Fatalf("delivered at %d, want 8", p.timesB[0])
	}
}

func TestNoRoutePanics(t *testing.T) {
	// A packet addressed beyond the wired ports must fail loudly.
	p := newPair(DefaultConfig())
	topo3 := topology.NewMesh(topology.MeshSpec{W: 3, H: 1, CoreX: 0, MemX: 2})
	// Router built over a 3-wide topology but wired only to one neighbor:
	r := New(0, topo3, mustTable(topo3, routing.XY{}), DefaultConfig(), p.k, nil)
	r.SetKernelID(p.k.Register(r))
	r.Inject(&flit.Packet{Kind: flit.ReadReq, Src: 0, Dst: 2, DstEp: flit.ToBank}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unwired route")
		}
	}()
	p.k.Run(100)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.VCsPerPC != 4 || c.BufDepth != 4 || c.Stages != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	d := DefaultConfig()
	if d != (Config{VCsPerPC: 4, BufDepth: 4, Stages: 1}) {
		t.Fatalf("DefaultConfig = %+v", d)
	}
}

func TestOccupancyTracksBufferedFlits(t *testing.T) {
	p := newPair(DefaultConfig())
	pkt := &flit.Packet{Kind: flit.HitData, Src: 0, Dst: 1, DstEp: flit.ToBank}
	p.a.Inject(pkt, 0)
	if p.a.Occupancy() != 5 {
		t.Fatalf("occupancy after inject = %d, want 5", p.a.Occupancy())
	}
	p.k.Run(100)
	if p.a.Occupancy()+p.b.Occupancy() != 0 {
		t.Fatal("flits leaked")
	}
}

// TestBuiltinEngines pins the engine catalogue (Names is sorted) and the
// empty-name default; the registry's generic behaviour is tested in
// internal/registry.
func TestBuiltinEngines(t *testing.T) {
	want := []string{"bufferless", "ring-lite", DefaultEngine}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if b, err := ByName(""); err != nil || b.Name != DefaultEngine {
		t.Fatalf(`ByName("") = %q, %v; want the default engine`, b.Name, err)
	}
	if _, err := ByName("optical"); err == nil || !strings.Contains(err.Error(), "[bufferless ring-lite vc-wormhole]") {
		t.Fatalf("unknown engine error does not list the catalogue: %v", err)
	}
}
