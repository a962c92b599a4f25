package topology_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nucanet/internal/config"
	"nucanet/internal/topology"
)

var updateGraphs = flag.Bool("update", false, "rewrite testdata/graphs.golden")

// dumpGraph writes every structural fact of t that a consumer reads:
// annotations, endpoints, render grid, each node with its coordinates,
// column and port table (target node, target port, wire delay), and the
// bank-set columns in MRU-to-LRU order.
func dumpGraph(buf *bytes.Buffer, label string, t *topology.Topology) {
	rw, rh := t.RenderSize()
	fmt.Fprintf(buf, "== %s: %s routing=%s %dx%d grid=%v\n", label, t.Name, t.Routing, t.W, t.H, t.HasGrid())
	fmt.Fprintf(buf, "core=%d mem=%d memwire=%d radial=%v render=%dx%d banks=%d links=%d\n",
		t.Core, t.Mem, t.MemWireDelay, t.Radial, rw, rh, t.NumBanks(), t.CountLinks())
	for _, nd := range t.Nodes {
		fmt.Fprintf(buf, "n%d (%d,%d) col=%d at=(%d,%d):", nd.ID, nd.X, nd.Y, nd.Col, nd.RX, nd.RY)
		for p, l := range t.Ports[nd.ID] {
			if l.To == topology.NoLink {
				fmt.Fprintf(buf, " %d:-", p)
				continue
			}
			fmt.Fprintf(buf, " %d:%d.%d/%d", p, l.To, l.ToPort, l.Delay)
		}
		buf.WriteByte('\n')
	}
	for c := 0; c < t.Columns(); c++ {
		fmt.Fprintf(buf, "col%d %v\n", c, t.Column(c))
	}
}

// TestGraphGolden pins every catalogue design's graph, plus a minimal
// mesh (no catalogue design uses that family), to testdata/graphs.golden:
// nodes, ports, link delays, columns, endpoints, memory wire delay,
// radial flag and render layout. Regenerate with
// go test ./internal/topology/ -run TestGraphGolden -update
// only for a declared change to a family's graph.
func TestGraphGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		topo, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		dumpGraph(&buf, d.ID, topo)
	}
	minimal, err := topology.Build("minimal-mesh", topology.Params{W: 6, H: 5, CoreX: 2, MemX: 4,
		HorizDelay: 2, VertDelay: []int{9, 1, 2, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dumpGraph(&buf, "minimal-mesh", minimal)

	path := filepath.Join("testdata", "graphs.golden")
	if *updateGraphs {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("topology graphs drifted from %s", path)
	}
}
