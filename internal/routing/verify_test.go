package routing_test

// External test package: the verifier acceptance tests exercise the
// real design catalogue (config imports router which imports routing,
// so an internal test would cycle).

import (
	"strings"
	"testing"

	"nucanet/internal/config"
	"nucanet/internal/routing"
	"nucanet/internal/topology"
)

// TestVerifyAllCatalogueDesigns re-derives the paper's deadlock-freedom
// arguments as verifier runs: every design the repo ships — Table 3's
// A-F plus the extra registered families (ring R, concentrated mesh G,
// hierarchical H2) — must pass the static channel-dependence check with
// its default routing algorithm.
func TestVerifyAllCatalogueDesigns(t *testing.T) {
	designs := append(config.Designs(), config.ExtraDesigns()...)
	if len(designs) != 9 {
		t.Fatalf("catalogue has %d designs, want 9 (A-F, R, G, H2)", len(designs))
	}
	for _, d := range designs {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			topo, err := d.Build()
			if err != nil {
				t.Fatal(err)
			}
			alg, err := routing.For(topo)
			if err != nil {
				t.Fatal(err)
			}
			if err := routing.VerifyDeadlockFree(topo, alg); err != nil {
				t.Fatalf("design %s (%s/%s): %v", d.ID, topo.Name, alg.Name(), err)
			}
		})
	}
}

// TestVerifyMinimalMesh covers the one shipped family with no catalogue
// entry: XY over the minimal mesh (Figure 4(b)) with its one-way middle
// rows.
func TestVerifyMinimalMesh(t *testing.T) {
	m := topology.MustBuild("minimal-mesh", topology.Params{W: 16, H: 16, CoreX: 7, MemX: 8})
	if err := routing.VerifyDeadlockFree(m, routing.XY{}); err != nil {
		t.Fatal(err)
	}
}

// allEast always routes clockwise, straight through the ring's dateline
// link: its channel-dependence graph is the full east cycle.
type allEast struct{}

func (allEast) Name() string { return "all-east" }

func (allEast) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	if cur == dst {
		return 0, false
	}
	return topology.PortEast, true
}

// yx routes Y-first-then-X: on the simplified mesh it dives into rows
// that have no horizontal links, so protocol routes hit missing links.
type yx struct{}

func (yx) Name() string { return "YX" }

func (yx) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	a, b := t.Nodes[cur], t.Nodes[dst]
	switch {
	case a.Y < b.Y:
		return topology.PortSouth, true
	case a.Y > b.Y:
		return topology.PortNorth, true
	case a.X < b.X:
		return topology.PortEast, true
	case a.X > b.X:
		return topology.PortWest, true
	}
	return 0, false
}

// quitter routes like XY but gives up (no next port) at row 1 on the way
// down: protocol routes dead-end mid-path.
type quitter struct{}

func (quitter) Name() string { return "quitter" }

func (quitter) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	if t.Nodes[cur].Y == 1 && t.Nodes[dst].Y > 1 {
		return 0, false
	}
	return routing.XY{}.NextPort(t, cur, dst)
}

// badRank routes like XYX but declares a constant channel rank, so every
// dependence edge violates the claimed strict order.
type badRank struct{ routing.XYX }

func (badRank) Name() string { return "bad-rank" }

func (badRank) ChannelRank(t *topology.Topology, from topology.NodeID, port int) (int, error) {
	return 0, nil
}

// pingPong sends every packet east from an even column and west from an
// odd one, so a packet bounces between two columns and never arrives
// anywhere else.
type pingPong struct{}

func (pingPong) Name() string { return "ping-pong" }

func (pingPong) NextPort(t *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	if cur == dst {
		return 0, false
	}
	if t.Nodes[cur].X%2 == 0 {
		return topology.PortEast, true
	}
	return topology.PortWest, true
}

func mesh6() *topology.Topology {
	return topology.MustBuild("mesh", topology.Params{W: 6, H: 6, CoreX: 2, MemX: 3})
}

func simplified6() *topology.Topology {
	return topology.MustBuild("simplified-mesh", topology.Params{W: 6, H: 6, CoreX: 2, MemX: 2})
}

// TestVerifyRejectsBadRouting is the negative acceptance table: each
// deliberately broken table must be rejected with a descriptive error.
func TestVerifyRejectsBadRouting(t *testing.T) {
	ring := func() *topology.Topology {
		tp, err := topology.Build("ring", topology.Params{W: 8, H: 1, CoreX: 0, MemX: 4, HorizDelay: 1})
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	cases := []struct {
		name    string
		topo    *topology.Topology
		alg     routing.Algorithm
		wantErr string
	}{
		{"cyclic-ring", ring(), allEast{}, "channel-dependence cycle"},
		{"missing-link", simplified6(), yx{}, "missing link"},
		{"dead-end", mesh6(), quitter{}, "dead-ends"},
		{"rank-violation", simplified6(), badRank{}, "violates its channel order"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := routing.VerifyDeadlockFree(c.topo, c.alg)
			if err == nil {
				t.Fatalf("%s on %s: expected rejection", c.alg.Name(), c.topo.Name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestVerifyDeflectionRejectsBadRouting is the negative table of the
// deflection half of the gate: an age-monotone arbiter bounds a packet's
// deflections only if its protocol route always arrives, so a route that
// stops short, leaves over a missing link or loops must be rejected.
func TestVerifyDeflectionRejectsBadRouting(t *testing.T) {
	cases := []struct {
		name    string
		topo    *topology.Topology
		alg     routing.Algorithm
		wantErr string
	}{
		{"dead-end", mesh6(), quitter{}, "no productive route"},
		{"missing-link", simplified6(), yx{}, "over missing link"},
		{"cyclic-route", mesh6(), pingPong{}, "without arriving (cyclic route)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := routing.VerifyDeflectionLivelockFree(c.topo, c.alg, true)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("%s on %s: err = %v, want a rejection mentioning %q", c.alg.Name(), c.topo.Name, err, c.wantErr)
			}
		})
	}
}

// TestVerifyRingAvoidsDateline pins the ring algorithm's safety
// argument at the route level: no route ever crosses the dateline link
// pair opposite the core.
func TestVerifyRingAvoidsDateline(t *testing.T) {
	tp, err := topology.Build("ring", topology.Params{W: 16, H: 1, CoreX: 3, MemX: 11, HorizDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := tp.W
	dl := (tp.Nodes[tp.Core].X + n/2) % n
	for src := 0; src < tp.NumNodes(); src++ {
		for dst := 0; dst < tp.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			hops, err := routing.Walk(tp, routing.Ring{}, src, dst, 2*n)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			for _, h := range hops {
				a, b := tp.Nodes[h.From].X, tp.Nodes[h.To].X
				if (a == dl && b == (dl+1)%n) || (a == (dl+1)%n && b == dl) {
					t.Fatalf("route %d->%d crosses the dateline link %d<->%d",
						src, dst, dl, (dl+1)%n)
				}
			}
		}
	}
}
