package cache

import (
	"fmt"

	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
)

// This file is the protocol conformance harness: it enumerates
// micro-scenarios over (policy, mode, hit position, set occupancy,
// pipelining), runs each against a fresh system with the golden model in
// lock-step, and checks runtime protocol invariants through the
// telemetry probe layer —
//
//   - every issued operation completes exactly once (one data delivery,
//     one finish, nothing after the finish);
//   - replacement chains conserve blocks (no bank evicts a block it
//     does not hold, no bank-set ever holds a tag twice, and the
//     event-reconstructed contents equal the final bank state);
//   - the network's packet pool drains to zero live packets;
//   - retirement is exact: retired ops are quarantined (parked, never
//     reused), so a message reaching one panics, and every op has
//     retired once the run drains.
//
// Every registered policy is covered automatically: the scenario
// enumeration walks the registry, so a policy added through
// RegisterPolicy is conformance-checked without touching this file.

// ScriptedAccess is one access of a conformance script.
type ScriptedAccess struct {
	Tag   uint64
	Set   int
	Write bool
}

// Scenario is one conformance micro-scenario: a warm state and an
// access script for column 0 of a small uniform design.
type Scenario struct {
	Name   string
	Policy Policy
	Mode   Mode
	// Warm[s] lists set s's initial tags, MRU to LRU (hierarchical warm
	// order: tag i lands at bank position i on the 1-way banks of the
	// conformance design).
	Warm [][]uint64
	// Pipelined issues the whole script at once — exercising the
	// controller's ColumnWindow and the multicast probe stash — instead
	// of draining between accesses.
	Pipelined bool
	Accesses  []ScriptedAccess
}

// conformanceDesign is a scaled-down 4x4 mesh of 1-way 64 KB banks:
// four bank positions per column give every policy its full repertoire
// (MRU hit, interior hit, LRU hit, full chains) while running fast.
func conformanceDesign() config.Design {
	banks := make([]bank.Spec, 4)
	for i := range banks {
		banks[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return config.Design{
		ID: "CONF", Description: "conformance mesh",
		Topology: "mesh",
		Params: topology.Params{W: 4, H: 4, CoreX: 2, MemX: 2,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: banks, Router: router.DefaultConfig(),
	}
}

// ConformanceScenarios enumerates the micro-scenario matrix for every
// registered policy: (policy x mode x occupancy x hit position x
// read/write), plus a dirty-writeback script and a pipelined stress
// script per (policy, mode).
func ConformanceScenarios() []Scenario {
	warmTags := func(n int) []uint64 {
		tags := make([]uint64, n)
		for i := range tags {
			tags[i] = uint64(100 + i)
		}
		return tags
	}
	const missTag = 999

	var scs []Scenario
	for id := 0; id < policies.Len(); id++ {
		p := Policy(id)
		for _, mode := range []Mode{Unicast, Multicast} {
			for _, occ := range []int{0, 1, 2, 4} {
				warm := warmTags(occ)
				for _, write := range []bool{false, true} {
					rw := "read"
					if write {
						rw = "write"
					}
					// A miss against this occupancy.
					scs = append(scs, Scenario{
						Name:   fmt.Sprintf("%v/%v/occ%d/miss/%s", p, mode, occ, rw),
						Policy: p, Mode: mode,
						Warm:     [][]uint64{warm},
						Accesses: []ScriptedAccess{{Tag: missTag, Write: write}},
					})
					// A hit at every occupied position.
					for hp := 0; hp < occ; hp++ {
						scs = append(scs, Scenario{
							Name:   fmt.Sprintf("%v/%v/occ%d/hit@%d/%s", p, mode, occ, hp, rw),
							Policy: p, Mode: mode,
							Warm:     [][]uint64{warm},
							Accesses: []ScriptedAccess{{Tag: warm[hp], Write: write}},
						})
					}
				}
			}

			// Dirty writeback: dirty the LRU-most block of a full set,
			// then stream misses until the dirty victim leaves the cache.
			full := warmTags(4)
			scs = append(scs, Scenario{
				Name:   fmt.Sprintf("%v/%v/writeback", p, mode),
				Policy: p, Mode: mode,
				Warm: [][]uint64{full},
				Accesses: []ScriptedAccess{
					{Tag: full[3], Write: true},
					{Tag: 900}, {Tag: 901}, {Tag: 902}, {Tag: 903}, {Tag: 904},
				},
			})

			// Pipelined stress: two sets of one column in flight at once
			// (the ColumnWindow), mixing hits at every depth with misses;
			// under multicast this also exercises the probe stash.
			scs = append(scs, Scenario{
				Name:   fmt.Sprintf("%v/%v/pipelined", p, mode),
				Policy: p, Mode: mode,
				Warm:      [][]uint64{warmTags(4), warmTags(2)},
				Pipelined: true,
				Accesses: []ScriptedAccess{
					{Tag: 103, Set: 0}, {Tag: 910, Set: 1},
					{Tag: 911, Set: 0, Write: true}, {Tag: 101, Set: 1},
					{Tag: 100, Set: 0}, {Tag: 912, Set: 1, Write: true},
					{Tag: 102, Set: 0, Write: true}, {Tag: 100, Set: 1},
				},
			})
		}
	}
	return scs
}

// RunScenario executes one scenario against a fresh system, comparing
// every access and the final contents with the golden model and
// enforcing the runtime protocol invariants. It returns the violations
// found (nil on full conformance).
func RunScenario(sc Scenario) []string {
	d := conformanceDesign()
	k := sim.NewKernel()
	sys, err := New(k, d, sc.Policy, sc.Mode)
	if err != nil {
		return []string{fmt.Sprintf("build system: %v", err)}
	}
	ck := newInvariantChecker()
	sys.EnableTelemetry(&telemetry.Collector{Protocol: ck})

	warm := make([][]uint64, sys.AM.Sets*sys.AM.Columns)
	g := sys.NewGoldenFor()
	for set, tags := range sc.Warm {
		warm[set*sys.AM.Columns] = tags // column 0
		g.Warm(0, set, tags)
	}
	sys.Warm(warm)
	ck.seed(sys)

	var violations []string
	type expectation struct {
		acc  ScriptedAccess
		req  *Request
		hit  bool
		bank int
	}
	var exps []expectation
	drain := func() {
		if err := sys.Drain(1_000_000); err != nil {
			violations = append(violations, err.Error())
		}
	}
	check := func(e expectation) {
		if e.req.Hit != e.hit || (e.hit && e.req.HitBank != e.bank) {
			violations = append(violations,
				fmt.Sprintf("access tag %d set %d: sim hit=%v bank=%d, golden hit=%v bank=%d",
					e.acc.Tag, e.acc.Set, e.req.Hit, e.req.HitBank, e.hit, e.bank))
		}
	}
	for _, acc := range sc.Accesses {
		addr := sys.AM.Compose(acc.Tag, acc.Set, 0)
		req := sys.Issue(addr, acc.Write, nil)
		hit, bankPos, _, _ := g.Access(0, acc.Set, acc.Tag)
		e := expectation{acc: acc, req: req, hit: hit, bank: bankPos}
		if sc.Pipelined {
			exps = append(exps, e)
			continue
		}
		drain()
		check(e)
	}
	if sc.Pipelined {
		drain()
		for _, e := range exps {
			check(e)
		}
	}

	// Final contents must match the golden model everywhere.
	for set := range sc.Warm {
		got := sys.Contents(0, set)
		want := g.Contents(0, set)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			violations = append(violations,
				fmt.Sprintf("set %d contents: sim %v, golden %v", set, got, want))
		}
	}
	return append(violations, ck.finish(sys)...)
}

// RunConformance runs the full scenario matrix and returns the number of
// scenarios executed plus every violation, prefixed with its scenario
// name.
func RunConformance() (scenarios int, violations []string) {
	scs := ConformanceScenarios()
	for _, sc := range scs {
		for _, v := range RunScenario(sc) {
			violations = append(violations, sc.Name+": "+v)
		}
	}
	return len(scs), violations
}

// InvariantProbe exposes the runtime protocol-invariant checker to
// external harnesses (the cmp package's multi-requester conformance):
// install it as the telemetry collector's Protocol probe, Seed it after
// warming, and Finish it after the final drain. It enforces the same
// invariants the in-package harness does — exactly-once operation
// completion, block conservation, event/state reconciliation.
type InvariantProbe struct {
	*invariantChecker
}

// NewInvariantProbe returns a fresh checker.
func NewInvariantProbe() *InvariantProbe {
	return &InvariantProbe{newInvariantChecker()}
}

// Seed snapshots the warm contents as the conservation baseline and
// quarantines the system's retired ops; call after System.Warm and before
// the first access.
func (p *InvariantProbe) Seed(sys *System) { p.seed(sys) }

// Finish closes the run and returns every violation found.
func (p *InvariantProbe) Finish(sys *System) []string { return p.finish(sys) }

// bankSetKey addresses one set of one bank for conservation tracking.
type bankSetKey struct{ col, pos, set int }

type opTrack struct {
	data     int
	finished int
}

// invariantChecker implements telemetry.ProtocolProbe, reconstructing
// block residency and operation lifecycles from the probe stream.
type invariantChecker struct {
	ops        map[uint64]*opTrack
	blocks     map[bankSetKey]map[uint64]int
	violations []string
}

func newInvariantChecker() *invariantChecker {
	return &invariantChecker{
		ops:    make(map[uint64]*opTrack),
		blocks: make(map[bankSetKey]map[uint64]int),
	}
}

// seed snapshots the warm contents as the conservation baseline and
// turns on the op pool's quarantine; call after System.Warm and before
// the first access.
func (ck *invariantChecker) seed(sys *System) {
	sys.ops.quarantine = true
	for col := 0; col < sys.AM.Columns; col++ {
		for pos := 0; pos <= sys.lastPos(); pos++ {
			bk := sys.Bank(col, pos)
			for set := 0; set < bk.NumSets(); set++ {
				for _, blk := range bk.Blocks(set) {
					ck.add(bankSetKey{col, pos, set}, blk.Tag)
				}
			}
		}
	}
}

func (ck *invariantChecker) add(key bankSetKey, tag uint64) {
	m := ck.blocks[key]
	if m == nil {
		m = make(map[uint64]int)
		ck.blocks[key] = m
	}
	m[tag]++
	if m[tag] > 1 {
		ck.violationf("bank %d/%d set %d holds tag %d twice", key.col, key.pos, key.set, tag)
	}
}

func (ck *invariantChecker) violationf(format string, args ...any) {
	ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
}

func (ck *invariantChecker) OpIssued(now int64, id uint64, col, set int, write bool) {
	if _, dup := ck.ops[id]; dup {
		ck.violationf("op %d issued twice", id)
		return
	}
	ck.ops[id] = &opTrack{}
}

func (ck *invariantChecker) OpData(now int64, id uint64, hit bool, hitBank int) {
	t := ck.ops[id]
	if t == nil {
		ck.violationf("op %d delivered data without being issued", id)
		return
	}
	t.data++
	if t.data > 1 {
		ck.violationf("op %d delivered data %d times", id, t.data)
	}
	if t.finished > 0 {
		ck.violationf("op %d delivered data after finishing", id)
	}
}

func (ck *invariantChecker) OpFinished(now int64, id uint64) {
	t := ck.ops[id]
	if t == nil {
		ck.violationf("op %d finished without being issued", id)
		return
	}
	t.finished++
	if t.finished > 1 {
		ck.violationf("op %d finished %d times", id, t.finished)
	}
	if t.data == 0 {
		ck.violationf("op %d finished without delivering data", id)
	}
}

func (ck *invariantChecker) BlockInserted(col, pos, set int, tag uint64) {
	ck.add(bankSetKey{col, pos, set}, tag)
}

func (ck *invariantChecker) BlockEvicted(col, pos, set int, tag uint64) {
	key := bankSetKey{col, pos, set}
	if ck.blocks[key][tag] == 0 {
		ck.violationf("bank %d/%d set %d evicted non-resident tag %d", col, pos, set, tag)
		return
	}
	ck.blocks[key][tag]--
}

// finish closes the run: every issued operation must have completed
// exactly once and retired, and the event-reconstructed residency must
// equal the final bank contents.
func (ck *invariantChecker) finish(sys *System) []string {
	if st := sys.ops.stats(); st.Live != 0 {
		ck.violationf("op pool: %d operations never retired (gets=%d puts=%d)", st.Live, st.Gets, st.Puts)
	}
	for id, t := range ck.ops {
		if t.data != 1 || t.finished != 1 {
			ck.violationf("op %d ended with data=%d finished=%d (want exactly once each)",
				id, t.data, t.finished)
		}
	}
	for col := 0; col < sys.AM.Columns; col++ {
		for pos := 0; pos <= sys.lastPos(); pos++ {
			bk := sys.Bank(col, pos)
			for set := 0; set < bk.NumSets(); set++ {
				key := bankSetKey{col, pos, set}
				resident := make(map[uint64]bool)
				for _, blk := range bk.Blocks(set) {
					resident[blk.Tag] = true
					if ck.blocks[key][blk.Tag] != 1 {
						ck.violationf("bank %d/%d set %d: tag %d resident but event count %d",
							col, pos, set, blk.Tag, ck.blocks[key][blk.Tag])
					}
				}
				for tag, n := range ck.blocks[key] {
					if n > 0 && !resident[tag] {
						ck.violationf("bank %d/%d set %d: tag %d counted %d by events but not resident",
							col, pos, set, tag, n)
					}
				}
			}
		}
	}
	return ck.violations
}
