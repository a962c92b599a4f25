package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/topology"
)

func mesh4() *topology.Topology {
	return topology.NewMesh(topology.MeshSpec{W: 4, H: 4, CoreX: 1, MemX: 2})
}

func TestNewDisabledIsNil(t *testing.T) {
	if c := New(Config{}, mesh4()); c != nil {
		t.Fatalf("zero Config must yield a nil collector, got %+v", c)
	}
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	for _, cfg := range []Config{{Trace: true}, {Heatmap: true}, {SampleEvery: 8}} {
		if !cfg.Enabled() || New(cfg, mesh4()) == nil {
			t.Fatalf("config %+v must enable a collector", cfg)
		}
	}
}

func TestNilCollectorProbesAreNoOps(t *testing.T) {
	var c *Collector
	f := flit.Flit{Pkt: &flit.Packet{ID: 1, Kind: flit.ReadReq}}
	// Every probe must be callable on nil without panicking.
	c.FlitInjected(1, f, 0)
	c.VCAllocated(1, f.Pkt, 0, 1, 2)
	c.FlitRouted(1, f, 0, 1, 2)
	c.FlitEjected(1, f, 0, 1)
	c.ReplicaForked(1, f, 0, 1, 2)
	c.BankAccess(0, 0)
	c.BankHit(0, 0)
	c.Sample(1, 2, 3)
	c.Finish(10)
	if c.SampleEvery() != 0 {
		t.Fatal("nil collector reports a sampling period")
	}
}

func TestTraceJSONL(t *testing.T) {
	tr := NewTrace()
	pkt := &flit.Packet{ID: 7, Kind: flit.HitData}
	tr.add(12, EvInject, pkt, 0, 3, -1, -1)
	tr.add(13, EvRoute, pkt, 1, 3, 2, 1)
	tr.add(20, EvEject, pkt, 4, 9, 3, -1)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 || tr.Len() != 3 {
		t.Fatalf("got %d lines / %d events, want 3", len(lines), tr.Len())
	}
	// Exact first line pins the schema and the field order.
	want := `{"cycle":12,"ev":"inject","pkt":7,"kind":"HitData","flit":0,"node":3,"port":-1,"vc":-1}`
	if lines[0] != want {
		t.Fatalf("line 0 = %s\nwant     %s", lines[0], want)
	}
	// Every line is valid JSON with the expected keys.
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		for _, k := range []string{"cycle", "ev", "pkt", "kind", "flit", "node", "port", "vc"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %d missing key %q: %s", i, k, ln)
			}
		}
	}
}

func TestHeatmapCountersAndRender(t *testing.T) {
	topo := mesh4()
	h := NewHeatmap(topo)
	f := flit.Flit{Pkt: &flit.Packet{ID: 1}}
	c := &Collector{Heat: h}
	c.FlitRouted(1, f, 0, topology.PortEast, 0)
	c.FlitRouted(2, f, 0, topology.PortEast, 0)
	c.FlitRouted(2, f, 5, topology.PortSouth, 1)
	c.FlitEjected(3, f, 5, topology.PortNorth)
	c.ReplicaForked(3, f, 5, 0, 1)
	c.BankAccess(1, 0)
	c.BankAccess(1, 0)
	c.BankHit(1, 0)
	c.Finish(100)

	if got := h.LinkFlits[0][topology.PortEast]; got != 2 {
		t.Errorf("link (0,east) = %d flits, want 2", got)
	}
	if got := h.NodeFlits(5); got != 2 { // 1 routed + 1 ejected
		t.Errorf("node 5 flits = %d, want 2", got)
	}
	if h.Forks[5] != 1 || h.BankAccesses[1][0] != 2 || h.BankHits[1][0] != 1 {
		t.Errorf("counters: forks=%d acc=%d hit=%d", h.Forks[5], h.BankAccesses[1][0], h.BankHits[1][0])
	}
	hot := h.HotLinks()
	if len(hot) == 0 || hot[0].Node != 0 || hot[0].Port != topology.PortEast || hot[0].Flits != 2 {
		t.Errorf("hottest link = %+v, want node 0 east with 2 flits", hot[0])
	}

	var a, b bytes.Buffer
	h.Render(&a)
	h.Render(&b)
	if a.String() != b.String() {
		t.Error("Render is not deterministic")
	}
	for _, frag := range []string{"node flit heatmap", "hottest links", "bank access heatmap", "4x4"} {
		if !strings.Contains(a.String(), frag) {
			t.Errorf("render output missing %q:\n%s", frag, a.String())
		}
	}
}

func TestHeatmapHaloRender(t *testing.T) {
	topo := topology.NewHalo(topology.HaloSpec{Spikes: 8, Length: 2})
	h := NewHeatmap(topo)
	f := flit.Flit{Pkt: &flit.Packet{ID: 1}}
	h.link(topo.Hub(), 0)
	_ = f
	var buf bytes.Buffer
	h.Render(&buf)
	if !strings.Contains(buf.String(), "halo 8x3") {
		t.Errorf("halo render should use the hub-row grid:\n%s", buf.String())
	}
}

func TestSeriesSparkAndRender(t *testing.T) {
	s := &Series{Every: 10}
	for i := 0; i < 200; i++ {
		s.add(int64(10*(i+1)), i%50, i%7)
	}
	if s.Len() != 200 {
		t.Fatalf("len = %d", s.Len())
	}
	var buf bytes.Buffer
	s.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "200 samples") || !strings.Contains(out, "max   49") {
		t.Errorf("series render:\n%s", out)
	}
	if got := spark(s.InFlight, 64); len(got) > 64 || len(got) == 0 {
		t.Errorf("spark width = %d, want 1..64", len(got))
	}
	if spark(nil, 64) != "" {
		t.Error("spark of empty series must be empty")
	}
}

// TestDisabledProbesAllocationFree is the package-local allocation guard;
// the repository root's hotpath_test.go carries the same guard next to
// the other hot-path allocation guards.
func TestDisabledProbesAllocationFree(t *testing.T) {
	var c *Collector
	f := flit.Flit{Pkt: &flit.Packet{ID: 1, Kind: flit.ReadReq}}
	n := testing.AllocsPerRun(1000, func() {
		c.FlitInjected(5, f, 1)
		c.VCAllocated(5, f.Pkt, 1, 2, 3)
		c.FlitRouted(5, f, 1, 2, 3)
		c.FlitEjected(5, f, 1, 2)
		c.ReplicaForked(5, f, 1, 2, 3)
		c.BankAccess(0, 1)
		c.BankHit(0, 1)
		c.Sample(5, 1, 2)
	})
	if n != 0 {
		t.Fatalf("disabled probe path allocates %.1f per op, want 0", n)
	}
}
