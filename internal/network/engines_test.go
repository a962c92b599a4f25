package network

import (
	"strings"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// Two deliberately broken engines exercise the construction gates: one
// deflecting engine without an age-monotone arbiter (the livelock
// verifier must reject it) and one whose Supports check refuses every
// topology. Neither is in router's catalogue; TestEngineConstructionGates
// hands them to check directly. Their constructors must never run.
func mustNotBuild(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg router.Config, k *sim.Kernel, s router.Sink, ar *router.Arena) router.Engine {
	panic("test engine constructed despite failing its construction gate")
}

var (
	unfairDeflect = router.Builder{
		Name:        "test-unfair-deflect",
		Description: "deflection without age priority (must be rejected)",
		New:         mustNotBuild,
		Deflecting:  true,
		AgeMonotone: false,
	}
	picky = router.Builder{
		Name:        "test-picky",
		Description: "supports nothing (must be rejected)",
		New:         mustNotBuild,
		Supports: func(topo *topology.Topology, cfg router.Config) error {
			return errTestPicky
		},
	}
)

var errTestPicky = &pickyErr{}

type pickyErr struct{}

func (*pickyErr) Error() string { return "this engine supports no topology at all" }

// newRigEngine is newRig with a registry engine selected.
func newRigEngine(topo *topology.Topology, engine string) *rig {
	k := sim.NewKernel()
	cfg := router.DefaultConfig()
	cfg.Engine = engine
	n := MustNew(k, topo, mustFor(topo), cfg)
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

// TestEngineConstructionGates pins the three descriptive construction
// failures: an unknown engine name, a deflecting engine whose arbiter is
// not age-monotone, and an engine whose Supports check rejects the
// topology. None may reach a router constructor.
func TestEngineConstructionGates(t *testing.T) {
	topo := mesh16()
	alg := mustFor(topo)

	cfg := router.DefaultConfig()
	cfg.Engine = "optical"
	if _, err := New(sim.NewKernel(), topo, alg, cfg); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("unknown engine: err = %v, want unknown-engine error", err)
	}

	if _, err := check(topo, alg, unfairDeflect, cfg); err == nil || !strings.Contains(err.Error(), "age-monotone") {
		t.Errorf("non-age-monotone deflection: err = %v, want livelock rejection", err)
	}

	if _, err := check(topo, alg, picky, cfg); err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("unsupported topology: err = %v, want Supports rejection", err)
	}
}

// TestEnginesCannotMix pins the wiring contract: all engines of one
// network come from one builder, and wiring across microarchitectures
// panics loudly instead of corrupting flow control. Every ordered pair
// of built-in engines is a row; bufferless and ring-lite share a latch
// core, so only each Wire's own type assertion tells them apart. Wiring
// an engine to its own kind must not panic.
func TestEnginesCannotMix(t *testing.T) {
	topo := mesh16()
	tb, err := routing.Precompute(topo, mustFor(topo))
	if err != nil {
		t.Fatal(err)
	}
	builtin := []string{router.DefaultEngine, "bufferless", "ring-lite"}
	for _, from := range builtin {
		for _, to := range builtin {
			t.Run(from+"->"+to, func(t *testing.T) {
				var ar router.Arena
				k := sim.NewKernel()
				build := func(name string, id topology.NodeID) router.Engine {
					b, err := router.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					return b.New(id, topo, tb, router.DefaultConfig(), k, nil, &ar)
				}
				a, b := build(from, 0), build(to, 1)
				defer func() {
					if panicked := recover() != nil; panicked != (from != to) {
						t.Errorf("wiring a %s router to a %s router: panicked = %v", from, to, panicked)
					}
				}()
				a.Wire(topology.PortEast, b, topology.PortWest, 1)
			})
		}
	}
}

// TestBufferlessLivelockBound is the dynamic half of the livelock
// argument (routing.VerifyDeflectionLivelockFree is the static half):
// under bursty saturation from every node, every injected packet must
// eject, and no packet's network time may exceed the age-induction bound
// of packets x diameter cycles. A deflection arbiter that ever let a
// younger packet displace the oldest would blow through the bound (or
// never drain at all).
func TestBufferlessLivelockBound(t *testing.T) {
	r := newRigEngine(mesh16(), "bufferless")
	nodes := r.topo.NumNodes()
	var pkts []*flit.Packet
	// Five waves of all-node crossfire: node i fires at the antipode and
	// at a stride-7 scatter target, with two cycles between waves.
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < nodes; i++ {
			for _, dst := range []int{nodes - 1 - i, (i*7 + 3*wave + 5) % nodes} {
				if dst == i {
					continue
				}
				p := ownPacket(flit.ReadReq, i, dst, flit.ToBank, uint64(i)*64)
				r.net.Send(p, r.k.Now())
				pkts = append(pkts, p)
			}
		}
		r.k.Step()
		r.k.Step()
	}

	const diameter = 30 // 16x16 mesh: (W-1)+(H-1)
	bound := int64(len(pkts)) * diameter
	if _, idle := r.k.Run(bound); !idle {
		t.Fatalf("bufferless network did not drain %d packets within the %d-cycle livelock bound", len(pkts), bound)
	}
	if got := r.net.InFlight(); got != 0 {
		t.Fatalf("in-flight flits after quiescence = %d, want 0", got)
	}

	var maxLat int64
	for _, p := range pkts {
		if p.Delivered == 0 && p.Dst != p.Src {
			t.Fatalf("packet %v never delivered", p)
		}
		if lat := p.Delivered - p.Injected; lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat > bound {
		t.Fatalf("max packet latency %d exceeds livelock bound %d", maxLat, bound)
	}
	st := r.net.Stats()
	if st.Router.Deflections == 0 {
		t.Fatal("saturation produced no deflections; the test did not exercise misrouting")
	}
	t.Logf("%d packets, max latency %d (bound %d), %d deflections",
		len(pkts), maxLat, bound, st.Router.Deflections)
}

// TestBufferlessMulticastExactlyOnce pins the protocol-critical property
// of source-expanded multicast: a PathDeliver probe reaches the bank of
// every column router exactly once — never skipped, never duplicated —
// even though deflection makes the original's route unpredictable. The
// cache controller counts one response per bank position, so a duplicate
// corrupts the miss protocol and a skip hangs it.
func TestBufferlessMulticastExactlyOnce(t *testing.T) {
	r := newRigEngine(mesh16(), "bufferless")
	col := 7
	last := r.topo.NodeAt(col, 15)
	p := r.net.NewPacket(flit.ReadReq, r.topo.Core, last, flit.ToBank, 0x1c0)
	p.PathDeliver = true
	r.net.Send(p, 0)
	r.run(t, 10000)

	for row := 0; row < 16; row++ {
		n := r.topo.NodeAt(col, row)
		if got := r.banks[n].got; len(got) != 1 {
			t.Fatalf("row %d: deliveries = %d, want exactly 1", row, len(got))
		}
	}
	for row := 0; row < 16; row++ {
		if n := r.topo.NodeAt(3, row); len(r.banks[n].got) != 0 {
			t.Fatalf("off-column bank received a replica")
		}
	}
	st := r.net.Stats()
	if st.Router.ReplicasSpawned != 15 {
		t.Fatalf("replicas spawned = %d, want 15", st.Router.ReplicasSpawned)
	}
	ps := r.net.PoolStats()
	if ps.Live != 0 || ps.Gets != ps.Puts {
		t.Fatalf("replica pool leak: gets=%d puts=%d live=%d", ps.Gets, ps.Puts, ps.Live)
	}
}

// TestRingLiteMulticastExactlyOnce is the same exactly-once pin for
// ring-lite's forward-time replication (the store-and-forward analogue of
// the wormhole's stolen-VC scheme).
func TestRingLiteMulticastExactlyOnce(t *testing.T) {
	r := newRigEngine(mesh16(), "ring-lite")
	col := 7
	last := r.topo.NodeAt(col, 15)
	p := r.net.NewPacket(flit.ReadReq, r.topo.Core, last, flit.ToBank, 0x1c0)
	p.PathDeliver = true
	r.net.Send(p, 0)
	r.run(t, 10000)

	for row := 0; row < 16; row++ {
		n := r.topo.NodeAt(col, row)
		if got := r.banks[n].got; len(got) != 1 {
			t.Fatalf("row %d: deliveries = %d, want exactly 1", row, len(got))
		}
	}
	st := r.net.Stats()
	if st.Router.ReplicasSpawned != 15 {
		t.Fatalf("replicas spawned = %d, want 15", st.Router.ReplicasSpawned)
	}
	ps := r.net.PoolStats()
	if ps.Live != 0 || ps.Gets != ps.Puts {
		t.Fatalf("replica pool leak: gets=%d puts=%d live=%d", ps.Gets, ps.Puts, ps.Live)
	}
}

// TestRingLiteStoreAndForwardSerialization pins the latency model that
// justifies ring-lite's tiny buffers: a multi-flit packet pays the
// (Flits-1)-cycle serialization penalty at every hop, so it must arrive
// strictly later than a single-flit packet over the same path — unlike
// the wormhole router, whose cut-through head arrival is flit-count
// independent.
func TestRingLiteStoreAndForwardSerialization(t *testing.T) {
	lat := func(kind flit.Kind) int64 {
		r := newRigEngine(mesh16(), "ring-lite")
		dst := r.topo.NodeAt(7, 15)
		p := ownPacket(kind, r.topo.Core, dst, flit.ToBank, 0)
		r.net.Send(p, 0)
		r.run(t, 10000)
		return p.Delivered - p.Injected
	}
	short := lat(flit.ReadReq) // 1 flit
	long := lat(flit.HitData)  // block-sized, multi-flit
	if long <= short {
		t.Fatalf("store-and-forward: %d-cycle block packet not slower than %d-cycle request", long, short)
	}
}

// TestEnginesConserveUnderLoad runs the conservation invariant for both
// new engines over mixed unicast traffic on their natural topologies:
// everything injected is delivered, nothing stays in flight.
func TestEnginesConserveUnderLoad(t *testing.T) {
	cases := []struct {
		name   string
		engine string
		topo   *topology.Topology
	}{
		{"bufferless-mesh", "bufferless", mesh16()},
		{"ring-lite-mesh", "ring-lite", mesh16()},
		{"bufferless-ring", "bufferless", topology.MustBuild("ring", topology.Params{W: 16, H: 1, CoreX: 0, MemX: 8})},
		{"ring-lite-ring", "ring-lite", topology.MustBuild("ring", topology.Params{W: 16, H: 1, CoreX: 0, MemX: 8})},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := newRigEngine(tc.topo, tc.engine)
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
			if st.PacketsInjected != uint64(N) || st.PacketsDelivered != uint64(N) {
				t.Fatalf("injected=%d delivered=%d, want %d/%d",
					st.PacketsInjected, st.PacketsDelivered, N, N)
			}
		})
	}
}
