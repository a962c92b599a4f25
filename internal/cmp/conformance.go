// Multi-requester protocol conformance: the cache package's harness
// checks every policy against the golden model under a single
// controller; this file extends it to the CMP fabric — several cores
// with private tag ranges issuing through their ports, local and remote
// column homes, overlapping sets — with the directory policy's ownership
// bookkeeping reconciled against the ground truth at the end.
package cmp

import (
	"fmt"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
)

// MCAccess is one scripted access: core Core touches (Col, Set, Tag) in
// its own tag range (the harness applies the owner offset).
type MCAccess struct {
	Core  int
	Col   int
	Set   int
	Tag   uint64
	Write bool
}

// MCWarm preloads one core's blocks into a set: tags are owner-relative,
// MRU to LRU; entries for the same (Col, Set) stack in script order.
type MCWarm struct {
	Core int
	Col  int
	Set  int
	Tags []uint64
}

// MCScenario is one multi-requester conformance micro-scenario.
type MCScenario struct {
	Name  string
	Mode  cache.Mode
	Cores int
	Warm  []MCWarm
	// Pipelined issues the whole script before draining: cross-core
	// traffic is concurrently in flight, so only the runtime invariants
	// and the directory reconciliation are checked (arrival order at a
	// shared column is timing-defined, not script-defined).
	Pipelined bool
	Accesses  []MCAccess

	// tamperGolden (tests only) skips the golden warm-up, making every
	// warm hit disagree with the model — proof the harness is alive.
	tamperGolden bool
}

// ConformanceDesign is the scaled-down mesh the multi-core scenarios run
// on: 4 columns of four 1-way banks give two-to-four cores local and
// remote homes with full replacement-chain depth while running fast.
func ConformanceDesign() config.Design {
	banks := make([]bank.Spec, 4)
	for i := range banks {
		banks[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return config.Design{
		ID: "CONF-CMP", Description: "multi-core conformance mesh",
		Topology: "mesh",
		Params: topology.Params{W: 4, H: 4, CoreX: 2, MemX: 2,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: banks, Router: router.DefaultConfig(),
	}
}

// MultiCoreScenarios enumerates the matrix: for each mode, every
// (core, local/remote home) pair is probed at every hit depth and on
// misses, read and write; plus overlapping-set interleavings (two- and
// four-core), a cross-core dirty-writeback chase, and a pipelined script
// with concurrent cross-fabric traffic.
func MultiCoreScenarios() []MCScenario {
	warm4 := func(core, col int) MCWarm {
		base := uint64(100 * (core + 1))
		return MCWarm{Core: core, Col: col,
			Tags: []uint64{base + 1, base + 2, base + 3, base + 4}}
	}

	var scs []MCScenario
	for _, mode := range []cache.Mode{cache.Unicast, cache.Multicast} {
		// Two cores at x=1 and x=3: columns 0-2 are homed on core 0,
		// column 3 on core 1.
		for _, pl := range []struct {
			core, col int
			kind      string
		}{
			{0, 0, "local"}, {0, 3, "remote"},
			{1, 3, "local"}, {1, 0, "remote"},
		} {
			w := warm4(pl.core, pl.col)
			for _, write := range []bool{false, true} {
				rw := "read"
				if write {
					rw = "write"
				}
				scs = append(scs, MCScenario{
					Name: fmt.Sprintf("%v/core%d/%s/miss/%s", mode, pl.core, pl.kind, rw),
					Mode: mode, Cores: 2, Warm: []MCWarm{w},
					Accesses: []MCAccess{{Core: pl.core, Col: pl.col, Tag: 999, Write: write}},
				})
				for hp, tag := range w.Tags {
					scs = append(scs, MCScenario{
						Name: fmt.Sprintf("%v/core%d/%s/hit@%d/%s", mode, pl.core, pl.kind, hp, rw),
						Mode: mode, Cores: 2, Warm: []MCWarm{w},
						Accesses: []MCAccess{{Core: pl.core, Col: pl.col, Tag: tag, Write: write}},
					})
				}
			}
		}

		// Overlapping set: both cores' working sets share (col 2, set 0);
		// misses push the other core's blocks out (cross-core evictions
		// the directory must attribute).
		scs = append(scs, MCScenario{
			Name: fmt.Sprintf("%v/overlap2", mode),
			Mode: mode, Cores: 2,
			Warm: []MCWarm{
				{Core: 0, Col: 2, Tags: []uint64{11, 12}},
				{Core: 1, Col: 2, Tags: []uint64{99, 98}},
			},
			Accesses: []MCAccess{
				{Core: 0, Col: 2, Tag: 11},              // hit
				{Core: 1, Col: 2, Tag: 99},              // hit
				{Core: 0, Col: 2, Tag: 77},              // miss, evicts
				{Core: 1, Col: 2, Tag: 88, Write: true}, // miss, evicts
				{Core: 0, Col: 2, Tag: 12},              // golden decides
				{Core: 1, Col: 2, Tag: 98},              // golden decides
			},
		})

		// Cross-core writeback chase: core 0 dirties its LRU-most block
		// on core 1's home column, then core 1 streams misses until the
		// dirty victim is pushed out of the cache by the other owner.
		scs = append(scs, MCScenario{
			Name: fmt.Sprintf("%v/writeback-cross", mode),
			Mode: mode, Cores: 2,
			Warm: []MCWarm{warm4(0, 3)},
			Accesses: []MCAccess{
				{Core: 0, Col: 3, Tag: 104, Write: true},
				{Core: 1, Col: 3, Tag: 301}, {Core: 1, Col: 3, Tag: 302},
				{Core: 1, Col: 3, Tag: 303}, {Core: 1, Col: 3, Tag: 304},
				{Core: 1, Col: 3, Tag: 305},
			},
		})

		// Four cores, one column: every core owns one warm way of
		// (col 0, set 0), hits it, then misses — maximal interleaving of
		// owners within a single replacement chain.
		fourWarm := make([]MCWarm, 4)
		var fourAcc []MCAccess
		for c := 0; c < 4; c++ {
			fourWarm[c] = MCWarm{Core: c, Col: 0, Tags: []uint64{uint64(10*c + 1)}}
			fourAcc = append(fourAcc, MCAccess{Core: c, Col: 0, Tag: uint64(10*c + 1)})
		}
		for c := 0; c < 4; c++ {
			fourAcc = append(fourAcc, MCAccess{Core: c, Col: 0, Tag: uint64(10*c + 7), Write: c%2 == 1})
		}
		scs = append(scs, MCScenario{
			Name: fmt.Sprintf("%v/overlap4", mode),
			Mode: mode, Cores: 4, Warm: fourWarm, Accesses: fourAcc,
		})

		// Pipelined: both cores issue to their remote homes at once, so
		// request, data, and replacement traffic from different owners
		// share the fabric concurrently.
		scs = append(scs, MCScenario{
			Name: fmt.Sprintf("%v/pipelined", mode),
			Mode: mode, Cores: 2, Pipelined: true,
			Warm: []MCWarm{
				{Core: 0, Col: 3, Set: 1, Tags: []uint64{111, 112}},
				{Core: 1, Col: 0, Set: 1, Tags: []uint64{211, 212}},
			},
			Accesses: []MCAccess{
				{Core: 0, Col: 3, Set: 1, Tag: 111},
				{Core: 1, Col: 0, Set: 1, Tag: 211},
				{Core: 0, Col: 3, Set: 1, Tag: 113, Write: true},
				{Core: 1, Col: 0, Set: 1, Tag: 213},
				{Core: 0, Col: 3, Set: 1, Tag: 112},
				{Core: 1, Col: 0, Set: 1, Tag: 214, Write: true},
			},
		})
	}
	return scs
}

// RunMultiCoreScenario executes one scenario on a fresh fabric under the
// directory policy, comparing drain-separated accesses and final
// contents with the golden model, enforcing the runtime protocol
// invariants through the cache package's probe, and reconciling the
// ownership directory against the resident blocks. It returns the
// directory report and the violations found (nil on full conformance).
func RunMultiCoreScenario(sc MCScenario) (cache.DirReport, []string) {
	d := ConformanceDesign()
	k := sim.NewKernel()
	sys, err := cache.New(k, d, cache.Directory, sc.Mode)
	if err != nil {
		return cache.DirReport{}, []string{fmt.Sprintf("build system: %v", err)}
	}
	probe := cache.NewInvariantProbe()
	sys.EnableTelemetry(&telemetry.Collector{Protocol: probe})
	f, err := Attach(sys, sc.Cores)
	if err != nil {
		return cache.DirReport{}, []string{fmt.Sprintf("attach fabric: %v", err)}
	}

	cols := sys.AM.Columns
	warm := make([][]uint64, sys.AM.Sets*cols)
	for _, w := range sc.Warm {
		idx := w.Set*cols + w.Col
		for _, tag := range w.Tags {
			warm[idx] = append(warm[idx], tag+uint64(w.Core)*OwnerStride)
		}
	}
	g := sys.NewGoldenFor()
	if !sc.tamperGolden {
		for idx, tags := range warm {
			if len(tags) > 0 {
				g.Warm(idx%cols, idx/cols, tags)
			}
		}
	}
	sys.Warm(warm)
	probe.Seed(sys)

	var violations []string
	drain := func() {
		if err := sys.Drain(1_000_000); err != nil {
			violations = append(violations, err.Error())
		} else if n := f.Pending(); n != 0 {
			violations = append(violations, fmt.Sprintf("%d accesses stuck at the ports", n))
		}
	}
	touched := map[[2]int]bool{}
	for _, w := range sc.Warm {
		touched[[2]int{w.Col, w.Set}] = true
	}
	for _, acc := range sc.Accesses {
		touched[[2]int{acc.Col, acc.Set}] = true
		owned := acc.Tag + uint64(acc.Core)*OwnerStride
		addr := sys.AM.Compose(owned, acc.Set, acc.Col)
		req := f.Port(acc.Core).Issue(addr, acc.Write, nil)
		if sc.Pipelined {
			continue
		}
		hit, bankPos, _, _ := g.Access(acc.Col, acc.Set, owned)
		drain()
		if req.Hit != hit || (hit && req.HitBank != bankPos) {
			violations = append(violations,
				fmt.Sprintf("core %d tag %d col %d set %d: sim hit=%v bank=%d, golden hit=%v bank=%d",
					acc.Core, acc.Tag, acc.Col, acc.Set, req.Hit, req.HitBank, hit, bankPos))
		}
	}
	if sc.Pipelined {
		drain()
	} else {
		// Final contents must match the golden model on every touched set.
		for cs := range touched {
			got := sys.Contents(cs[0], cs[1])
			want := g.Contents(cs[0], cs[1])
			if fmt.Sprint(got) != fmt.Sprint(want) {
				violations = append(violations,
					fmt.Sprintf("col %d set %d contents: sim %v, golden %v", cs[0], cs[1], got, want))
			}
		}
	}

	violations = append(violations, probe.Finish(sys)...)
	violations = append(violations, sys.Dir.Verify(sys)...)
	return sys.Dir.Report(), violations
}

// RunMultiCoreConformance runs the full matrix, returning the scenario
// count and every violation prefixed with its scenario name.
func RunMultiCoreConformance() (scenarios int, violations []string) {
	scs := MultiCoreScenarios()
	for _, sc := range scs {
		_, vs := RunMultiCoreScenario(sc)
		for _, v := range vs {
			violations = append(violations, sc.Name+": "+v)
		}
	}
	return len(scs), violations
}
