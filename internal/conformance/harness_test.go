// Package conformance_test is the protocol conformance harness. It runs
// scenarios over (policy, mode, cores, set occupancy, access script,
// pipelining), each on a system built afresh from a recycled arena, with
// the golden model in lock-step on hit decisions, final contents and
// write-backs, and checks runtime protocol invariants through the
// telemetry probe layer:
//
//   - every issued operation completes exactly once (one data delivery,
//     one finish, nothing after the finish);
//   - replacement chains conserve blocks (no bank evicts a block it does
//     not hold, no bank-set ever holds a tag twice, and the
//     event-reconstructed contents equal the final bank state);
//   - retirement is exact: with a protocol probe installed the op pool
//     quarantines retired ops (parked, never reused), so a message
//     reaching one panics, and System.Drain fails on an op still live;
//   - under the directory policy, the ownership directory reconciles
//     with the resident blocks.
//
// One runner drives both matrices: the classic single controller
// (Cores == 0) and the CMP fabric (Cores >= 1, several cores with
// private tag ranges issuing through their ports to local and remote
// column homes). It uses the simulator's exported API alone.
package conformance_test

import (
	"fmt"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
)

// Access is one scripted access: core Core touches (Col, Set, Tag) in
// its own tag range (the runner applies the owner offset).
type Access struct {
	Core, Col, Set int
	Tag            uint64
	Write          bool
}

// Warm preloads one core's blocks into a set: tags are owner-relative,
// MRU to LRU (hierarchical warm order: tag i lands at bank position i on
// the 1-way banks of the conformance design); entries for the same
// (Col, Set) stack in script order.
type Warm struct {
	Core, Col, Set int
	Tags           []uint64
}

// Scenario is one conformance micro-scenario: a warm state and an access
// script on the conformance design.
type Scenario struct {
	Name   string
	Policy cache.Policy
	Mode   cache.Mode
	// Cores is 0 for the classic single controller, or the core count
	// cmp.Attach places on the fabric.
	Cores int
	Warm  []Warm
	// Pipelined issues the whole script before draining, exercising the
	// controller's ColumnWindow and the multicast probe stash, and with
	// cores, concurrent cross-fabric traffic. With cores, arrival order
	// at a shared column is timing-defined, not script-defined, so only
	// the runtime invariants and the directory reconciliation are
	// checked.
	Pipelined bool
	Accesses  []Access

	// tamperGolden skips the golden warm-up, making every warm hit
	// disagree with the model: proof the harness is alive.
	tamperGolden bool
	// panicOnData panics inside the kernel at the first data delivery:
	// proof that run turns a fault into this scenario's violation.
	panicOnData bool
}

// conf is the conformance design with its topology and checked routing
// table. All three are immutable, so they are built once and every
// scenario's system shares them.
var conf = newConfNet()

type confNet struct {
	design config.Design
	topo   *topology.Topology
	table  *routing.Table
}

// newConfNet builds a scaled-down 4x4 mesh of 1-way 64 KB banks: four
// bank positions per column give every policy its full repertoire (MRU
// hit, interior hit, LRU hit, full chains), and four columns give two to
// four cores local and remote homes, while running fast.
func newConfNet() confNet {
	banks := make([]bank.Spec, 4)
	for i := range banks {
		banks[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	d := config.Design{
		ID: "CONF", Description: "conformance mesh",
		Topology: "mesh",
		Params: topology.Params{W: 4, H: 4, CoreX: 2, MemX: 2,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: banks, Router: router.DefaultConfig(),
	}
	topo, err := d.Validate()
	if err != nil {
		panic(err)
	}
	alg, err := routing.For(topo)
	if err != nil {
		panic(err)
	}
	tb, err := network.Check(topo, alg, d.Router)
	if err != nil {
		panic(err)
	}
	return confNet{design: d, topo: topo, table: tb}
}

// owned is core's copy of an owner-relative tag.
func owned(core int, tag uint64) uint64 { return tag + uint64(core)*cmp.OwnerStride }

// run executes sc on a system built from ar, comparing accesses, final
// contents and the write-back count with the golden model and enforcing
// the runtime protocol invariants. It returns the system, valid until ar
// is next reset, and every violation found (nil on full conformance). A
// nil ar gives the system a fresh arena. A panic — a protocol fault deep
// in a bank or the controller — is recovered as one more violation, so
// a matrix goes on to its next scenario on the same arena.
func run(sc Scenario, ar *cache.Arena) (sys *cache.System, violations []string) {
	defer func() {
		if r := recover(); r != nil {
			violations = append(violations, fmt.Sprintf("panic: %v", r))
		}
	}()
	if ar == nil {
		ar = new(cache.Arena)
	}
	ar.Reset()
	sys, err := cache.NewPrebuilt(ar.Kernel(), conf.design, sc.Policy, sc.Mode, cache.Prebuilt{
		Topo: conf.topo, Alg: conf.table, Arena: ar, Prechecked: true,
	})
	if err != nil {
		return nil, []string{fmt.Sprintf("build system: %v", err)}
	}
	ck := newInvariantChecker()
	ck.panicOnData = sc.panicOnData
	sys.EnableTelemetry(&telemetry.Collector{Protocol: ck})
	var f *cmp.Fabric
	if sc.Cores > 0 {
		if f, err = cmp.Attach(sys, sc.Cores); err != nil {
			return nil, []string{fmt.Sprintf("attach fabric: %v", err)}
		}
	}

	// The warm table, the golden model and the invariant checker cover
	// sets [0, sets), the sets the scenario names; a bank reads past its
	// warm image only if a run strays from them, and then panics.
	cols, sets := sys.AM.Columns, 0
	touched := map[[2]int]bool{}
	for _, w := range sc.Warm {
		touched[[2]int{w.Col, w.Set}] = true
		sets = max(sets, w.Set+1)
	}
	for _, acc := range sc.Accesses {
		touched[[2]int{acc.Col, acc.Set}] = true
		sets = max(sets, acc.Set+1)
	}
	warm := make([][]uint64, sets*cols)
	for _, w := range sc.Warm {
		idx := w.Set*cols + w.Col
		for _, tag := range w.Tags {
			warm[idx] = append(warm[idx], owned(w.Core, tag))
		}
	}
	g := cache.NewGolden(sc.Policy, conf.design.Banks, cols, sets)
	if !sc.tamperGolden {
		for idx, tags := range warm {
			if len(tags) > 0 {
				g.Warm(idx%cols, idx/cols, tags)
			}
		}
	}
	sys.Warm(warm)
	ck.seed(sys, touched)

	type expectation struct {
		acc  Access
		req  *cache.Request
		hit  bool
		bank int
	}
	var exps []expectation
	// flush drains the system and checks the accesses issued since the
	// last flush against the golden model.
	flush := func() {
		if err := sys.Drain(1_000_000); err != nil {
			violations = append(violations, err.Error())
		} else if f != nil && f.Pending() != 0 {
			violations = append(violations, fmt.Sprintf("%d accesses stuck at the ports", f.Pending()))
		}
		for _, e := range exps {
			if e.req.Hit != e.hit || (e.hit && e.req.HitBank != e.bank) {
				violations = append(violations,
					fmt.Sprintf("core %d tag %d col %d set %d: sim hit=%v bank=%d, golden hit=%v bank=%d",
						e.acc.Core, e.acc.Tag, e.acc.Col, e.acc.Set, e.req.Hit, e.req.HitBank, e.hit, e.bank))
			}
		}
		exps = exps[:0]
	}
	// ordered: the script, not timing, fixes the order accesses reach
	// each column, so the golden model can replay it.
	ordered := !sc.Pipelined || sc.Cores == 0
	// dirty holds the tags written since they last entered the cache:
	// each one the golden model evicts must be written back once.
	dirty := map[uint64]bool{}
	var writeBacks uint64
	for _, acc := range sc.Accesses {
		tag := owned(acc.Core, acc.Tag)
		addr := sys.AM.Compose(tag, acc.Set, acc.Col)
		var req *cache.Request
		if f != nil {
			req = &cache.Request{Addr: addr, Write: acc.Write}
			f.Port(acc.Core).Submit(req)
		} else {
			req = sys.Issue(addr, acc.Write, nil)
		}
		if ordered {
			hit, bankPos, evicted, evictedOK := g.Access(acc.Col, acc.Set, tag)
			exps = append(exps, expectation{acc: acc, req: req, hit: hit, bank: bankPos})
			if evictedOK && dirty[evicted] {
				writeBacks++
				delete(dirty, evicted)
			}
			if acc.Write {
				dirty[tag] = true
			}
		}
		if !sc.Pipelined {
			flush()
		}
	}
	if sc.Pipelined {
		flush()
	}

	if ordered {
		// Final contents must match the golden model on every touched set.
		for cs := range touched {
			got, want := sys.Contents(cs[0], cs[1]), g.Contents(cs[0], cs[1])
			if fmt.Sprint(got) != fmt.Sprint(want) {
				violations = append(violations,
					fmt.Sprintf("col %d set %d contents: sim %v, golden %v", cs[0], cs[1], got, want))
			}
		}
		if got := sys.Memory.Stats().WriteBacks; got != writeBacks {
			violations = append(violations,
				fmt.Sprintf("memory took %d write-backs, golden evicted %d dirty blocks", got, writeBacks))
		}
	}
	violations = append(violations, ck.finish(sys)...)
	if sc.Policy == cache.Directory {
		violations = append(violations, sys.Dir.Verify(sys)...)
	}
	return sys, violations
}

// bankSetKey addresses one set of one bank for conservation tracking.
type bankSetKey struct{ col, pos, set int }

type opTrack struct {
	data     int
	finished int
}

// invariantChecker implements telemetry.ProtocolProbe, reconstructing
// block residency and operation lifecycles from the probe stream.
type invariantChecker struct {
	ops         map[uint64]*opTrack
	blocks      map[bankSetKey]map[uint64]int
	violations  []string
	panicOnData bool
}

func newInvariantChecker() *invariantChecker {
	return &invariantChecker{
		ops:    make(map[uint64]*opTrack),
		blocks: make(map[bankSetKey]map[uint64]int),
	}
}

// seed snapshots the warm contents of every bank of the touched (col,
// set) pairs as the conservation baseline; call after System.Warm and
// before the first access. Those bank-sets, and any other a probe event
// names, are the ones finish checks.
func (ck *invariantChecker) seed(sys *cache.System, touched map[[2]int]bool) {
	for cs := range touched {
		for pos := range sys.Design.Banks {
			key := bankSetKey{cs[0], pos, cs[1]}
			ck.blocks[key] = make(map[uint64]int)
			for _, blk := range sys.Bank(key.col, key.pos).Blocks(key.set) {
				ck.add(key, blk.Tag)
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
	if ck.panicOnData {
		panic(fmt.Sprintf("seeded fault at op %d's data, cycle %d", id, now))
	}
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
// exactly once, and the event-reconstructed residency must equal the
// final bank contents on every bank-set seed or a probe event named.
// (System.Drain has already proved every op retired.)
func (ck *invariantChecker) finish(sys *cache.System) []string {
	for id, t := range ck.ops {
		if t.data != 1 || t.finished != 1 {
			ck.violationf("op %d ended with data=%d finished=%d (want exactly once each)",
				id, t.data, t.finished)
		}
	}
	for key, counts := range ck.blocks {
		resident := make(map[uint64]bool)
		for _, blk := range sys.Bank(key.col, key.pos).Blocks(key.set) {
			resident[blk.Tag] = true
			if counts[blk.Tag] != 1 {
				ck.violationf("bank %d/%d set %d: tag %d resident but event count %d",
					key.col, key.pos, key.set, blk.Tag, counts[blk.Tag])
			}
		}
		for tag, n := range counts {
			if n > 0 && !resident[tag] {
				ck.violationf("bank %d/%d set %d: tag %d counted %d by events but not resident",
					key.col, key.pos, key.set, tag, n)
			}
		}
	}
	return ck.violations
}
