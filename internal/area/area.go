// Package area is the analytical "cacti-lite" model behind Table 4: it
// estimates bank, router, and link areas of each network design and the
// minimal rectangular die that contains the L2.
//
// Banks follow a calibrated capacity power law (Cacti 3.0 at 65 nm gives
// ~1.06 mm^2 for a 64 KB bank; density improves with capacity). Routers
// split into buffer area (linear in ports: VCs x depth x flit bits per PC)
// and crossbar area (quadratic in ports), calibrated so a 3-port router is
// ~48% of a 5-port router as the paper reports. A bidirectional link of
// 128-bit flits at 1 um wire pitch is 256 um wide and spans one tile edge;
// tile edges are solved by fixed point since links enlarge the tiles they
// cross. Wires are not routed over banks, so no repeater/latch area is
// added (Section 6.3).
package area

import (
	"fmt"
	"math"

	"nucanet/internal/config"
	"nucanet/internal/router"
)

// Model holds the calibrated constants.
type Model struct {
	Bank64KB float64 // mm^2 of a 64 KB bank
	BankExp  float64 // capacity exponent (sublinear density scaling)

	RouterPortLinear float64 // mm^2 per port (input buffers)
	RouterPortQuad   float64 // mm^2 per port^2 (crossbar)

	WirePitchUM float64 // wire pitch in um
	FlitBits    int     // link width in bits (bidirectional pairs)

	CoreEdgeMM float64 // processor core edge for halo layouts
}

// DefaultModel returns the 65 nm calibration used for Table 4.
func DefaultModel() Model {
	return Model{
		Bank64KB:         1.06,
		BankExp:          0.93,
		RouterPortLinear: 0.04611,
		RouterPortQuad:   0.00923,
		WirePitchUM:      1.0,
		FlitBits:         128,
		CoreEdgeMM:       4.0,
	}
}

// BankArea returns the area of one bank in mm^2.
func (m Model) BankArea(sizeKB int) float64 {
	return m.Bank64KB * math.Pow(float64(sizeKB)/64, m.BankExp)
}

// RouterAreaFor returns the area of a router with the given port count
// (neighbor ports + injection) under a specific router configuration. The linear term models the input
// buffers, so it scales with the engine's buffer flits per port relative
// to the calibration point (the default wormhole router's 16 flits: 4 VCs
// x 4 slots); the quadratic crossbar term is engine-independent. The
// default configuration therefore reproduces the calibrated
// RouterPortLinear*p + RouterPortQuad*p^2 exactly, keeping Table 4
// bit-identical, while bufferless (1 latch flit) and ring-lite (2)
// shed most of the buffer area — the area axis of the Pareto sweep.
func (m Model) RouterAreaFor(cfg router.Config, ports int) (float64, error) {
	eng, err := router.ByName(cfg.Engine)
	if err != nil {
		return 0, err
	}
	calib, err := router.ByName(router.DefaultEngine)
	if err != nil {
		return 0, err
	}
	scale := float64(eng.BufferFlitsPerPort(cfg)) / float64(calib.BufferFlitsPerPort(router.DefaultConfig()))
	p := float64(ports)
	return m.RouterPortLinear*p*scale + m.RouterPortQuad*p*p, nil
}

// LinkWidthMM returns the physical width of one bidirectional link.
func (m Model) LinkWidthMM() float64 {
	return 2 * float64(m.FlitBits) * m.WirePitchUM / 1000
}

// Report is one row of Table 4.
type Report struct {
	DesignID  string
	BankMM2   float64
	RouterMM2 float64
	LinkMM2   float64
	ChipMM2   float64 // minimal rectangle containing the L2 (and core for halos)
}

// L2MM2 returns the total L2 area.
func (r Report) L2MM2() float64 { return r.BankMM2 + r.RouterMM2 + r.LinkMM2 }

// BankPct, RouterPct and LinkPct return the Table 4 percentage split.
func (r Report) BankPct() float64   { return 100 * r.BankMM2 / r.L2MM2() }
func (r Report) RouterPct() float64 { return 100 * r.RouterMM2 / r.L2MM2() }
func (r Report) LinkPct() float64   { return 100 * r.LinkMM2 / r.L2MM2() }

// NetworkMM2 returns the interconnect (router + link) area.
func (r Report) NetworkMM2() float64 { return r.RouterMM2 + r.LinkMM2 }

// Analyze computes the Table 4 row for a design. It errors when the
// design's topology cannot be built.
func (m Model) Analyze(d config.Design) (Report, error) {
	topo, err := d.Build()
	if err != nil {
		return Report{}, err
	}
	rep := Report{DesignID: d.ID}

	// Routers: the fixed part of each tile.
	n := topo.NumNodes()
	tileFixed := make([]float64, n)
	for id := 0; id < n; id++ {
		ports := 1 // injection
		for p := 0; p < topo.NumPorts(id); p++ {
			if _, ok := topo.Link(id, p); ok {
				ports++
			}
		}
		ra, err := m.RouterAreaFor(d.Router, ports)
		if err != nil {
			return Report{}, fmt.Errorf("area: design %s: %w", d.ID, err)
		}
		rep.RouterMM2 += ra
		tileFixed[id] = ra
	}
	// Banks: walk the columns so a concentrated node accumulates one
	// bank area per column position it hosts.
	for c := 0; c < topo.Columns(); c++ {
		for pos, node := range topo.Column(c) {
			ba := m.BankArea(d.Banks[pos].SizeKB)
			rep.BankMM2 += ba
			tileFixed[node] += ba
		}
	}

	// Links: length spans a tile edge; tiles grow to accommodate the
	// links crossing them, so solve by fixed point. The link area is
	// spread over the tiles proportionally to keep edges consistent.
	width := m.LinkWidthMM()
	fixedTotal := rep.BankMM2 + rep.RouterMM2
	linkTotal := 0.0
	edge := func(id int, scale float64) float64 {
		return math.Sqrt(tileFixed[id] * scale)
	}
	for iter := 0; iter < 30; iter++ {
		scale := (fixedTotal + linkTotal) / fixedTotal
		sum := 0.0
		for id := 0; id < n; id++ {
			for p := 0; p < topo.NumPorts(id); p++ {
				l, ok := topo.Link(id, p)
				if !ok || l.To < id {
					continue // count each bidirectional pair once
				}
				length := (edge(id, scale) + edge(l.To, scale)) / 2
				sum += length * width
			}
		}
		if math.Abs(sum-linkTotal) < 1e-9 {
			linkTotal = sum
			break
		}
		linkTotal = sum
	}
	rep.LinkMM2 = linkTotal

	// Die layout.
	scale := (fixedTotal + linkTotal) / fixedTotal
	if topo.Radial {
		// Spikes radiate from a central core; the die is the square
		// containing the two longest opposite spikes plus the core. On a
		// concentrated spike one router tile may appear several times in
		// the column; count each tile edge once.
		maxRadial := 0.0
		for s := 0; s < topo.Columns(); s++ {
			radial := 0.0
			prev := -1
			for _, node := range topo.Column(s) {
				if node != prev {
					radial += edge(node, scale)
				}
				prev = node
			}
			if radial > maxRadial {
				maxRadial = radial
			}
		}
		side := 2*maxRadial + m.CoreEdgeMM
		rep.ChipMM2 = side * side
	} else {
		// Planar topologies: tiles pack into the render grid's rows, and
		// the die is the widest row times the summed row heights. Meshes
		// render at their mesh coordinates, so this reproduces the
		// original row packing exactly.
		_, rh := topo.RenderSize()
		rowW := make([]float64, rh)
		rowH := make([]float64, rh)
		for id := 0; id < n; id++ {
			_, y := topo.RenderCoord(id)
			e := edge(id, scale)
			rowW[y] += e
			if e > rowH[y] {
				rowH[y] = e
			}
		}
		maxW, totalH := 0.0, 0.0
		for y := 0; y < rh; y++ {
			if rowW[y] > maxW {
				maxW = rowW[y]
			}
			totalH += rowH[y]
		}
		rep.ChipMM2 = maxW * totalH
	}
	if rep.ChipMM2 < rep.L2MM2() {
		rep.ChipMM2 = rep.L2MM2()
	}
	return rep, nil
}

// Table4 analyzes the four designs the paper reports (A, B, E, F).
func Table4(m Model) ([]Report, error) {
	var out []Report
	for _, id := range []string{"A", "B", "E", "F"} {
		d, err := config.DesignByID(id)
		if err != nil {
			return nil, err
		}
		rep, err := m.Analyze(d)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
