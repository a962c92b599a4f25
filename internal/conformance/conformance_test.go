package conformance_test

import (
	"strings"
	"testing"

	"nucanet/internal/cache"
)

// check runs every scenario of scs, each on a system built from one
// arena the loop recycles, and returns every violation, prefixed with
// its scenario's name.
func check(scs []Scenario) []string {
	var violations []string
	var ar cache.Arena
	for _, sc := range scs {
		_, vs := run(sc, &ar)
		for _, v := range vs {
			violations = append(violations, sc.Name+": "+v)
		}
	}
	return violations
}

// runMatrix runs every scenario of scs and fails on any violation,
// listing the first 20.
func runMatrix(t *testing.T, scs []Scenario) {
	t.Helper()
	violations := check(scs)
	if n := len(violations); n > 0 {
		t.Fatalf("%d invariant violations across %d scenarios; first %d:\n%s",
			n, len(scs), min(n, 20), strings.Join(violations[:min(n, 20)], "\n"))
	}
	t.Logf("%d scenarios, 0 violations", len(scs))
}

// maxScript is the longest generated script TestConformance runs: three
// accesses, or two under -short.
func maxScript() int {
	if testing.Short() {
		return 2
	}
	return 3
}

// TestConformance runs the single-controller matrix: every registered
// policy against the golden model with the runtime protocol invariants
// enforced.
func TestConformance(t *testing.T) {
	scs := singleCoreScenarios(maxScript())
	perPolicy := make(map[cache.Policy]int)
	for _, sc := range scs {
		perPolicy[sc.Policy]++
	}
	for _, name := range cache.PolicyNames() {
		p, err := cache.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if perPolicy[p] == 0 {
			t.Errorf("registered policy %s has no conformance scenarios", name)
		}
	}
	runMatrix(t, scs)
}

// TestMultiCoreConformance runs the multi-requester matrix: every
// (core, local/remote home) pair at every hit depth and on misses,
// overlapping sets with two and four cores, cross-core writebacks, and
// a pipelined concurrent script — all in golden lock-step under the
// directory policy with the runtime protocol invariants enforced.
func TestMultiCoreConformance(t *testing.T) {
	runMatrix(t, multiCoreScenarios())
}

// TestMatrixSize pins both matrices. Per (policy, mode, issue order),
// summed over the occupancies, there are 22, 172 and 1,584 scripts of
// one, two and three accesses, each canonical (fresh tags first named in
// order, warm tags within the set's occupancy) and distinct. The
// single-core matrix adds 24 hand-written scenarios to them, and the CMP
// fabric's holds 88; every name is unique.
func TestMatrixSize(t *testing.T) {
	perK := []int{22, 172, 1584}
	generated := 0
	for k, want := range perK {
		n := 0
		for _, occ := range occupancies {
			seen := map[string]bool{}
			for _, script := range scripts(occ, k+1) {
				name := scriptName(script)
				if seen[name] {
					t.Errorf("occ%d: script %s repeats", occ, name)
				}
				seen[name] = true
				if len(script) != k+1 || !canonical(script, occ) {
					t.Errorf("occ%d: script %s is not a canonical script of %d accesses", occ, name, k+1)
				}
			}
			n += len(seen)
		}
		if n != want {
			t.Errorf("%d scripts of %d accesses, want %d", n, k+1, want)
		}
		generated += want
	}

	policies := len(cache.PolicyNames())
	single, multi := singleCoreScenarios(len(perK)), multiCoreScenarios()
	hand := 2*len(modes)*policies + 8 // writeback and pipelined per (policy, mode), two-chain/then*
	if want := 2*len(modes)*policies*generated + hand; len(single) != want {
		t.Errorf("single-core matrix has %d scenarios, want %d", len(single), want)
	}
	if len(multi) != 88 {
		t.Errorf("multi-core matrix has %d scenarios, want 88", len(multi))
	}
	seen := map[string]bool{}
	for _, sc := range append(single, multi...) {
		if seen[sc.Name] {
			t.Errorf("scenario name %q repeats", sc.Name)
		}
		seen[sc.Name] = true
	}
}

// canonical reports whether script names its fresh tags in order of
// first appearance and only warm tags a set of occ blocks holds.
func canonical(script []Access, occ int) bool {
	fresh := uint64(freshTag)
	for _, acc := range script {
		switch {
		case acc.Tag == fresh:
			fresh++
		case acc.Tag >= freshTag && acc.Tag < fresh:
		case acc.Tag < warmTag || acc.Tag >= uint64(warmTag+occ):
			return false
		}
	}
	return true
}

// TestConformanceCatchesViolations pins that the single-controller
// harness is alive: the control scenario passes, the same scenario
// against an unwarmed golden model fails, and the checker flags each
// kind of lifecycle and conservation fault fed to it directly.
func TestConformanceCatchesViolations(t *testing.T) {
	sc := Scenario{
		Name:   "tamper",
		Policy: cache.LRU, Mode: cache.Multicast,
		Warm:     []Warm{{Tags: []uint64{100, 101, 102, 103}}},
		Accesses: []Access{{Tag: 100}},
	}
	if _, v := run(sc, nil); len(v) != 0 {
		t.Fatalf("control scenario should pass, got %v", v)
	}
	sc.tamperGolden = true
	if _, v := run(sc, nil); len(v) == 0 {
		t.Fatal("tampered golden state produced no violations; the harness is dead")
	}
	ck := newInvariantChecker()
	ck.BlockInserted(0, 0, 0, 42)
	ck.BlockInserted(0, 0, 0, 42)
	if len(ck.violations) == 0 {
		t.Fatal("double insert not flagged")
	}
	ck2 := newInvariantChecker()
	ck2.BlockEvicted(0, 0, 0, 7)
	if len(ck2.violations) == 0 {
		t.Fatal("evicting a non-resident block not flagged")
	}
	ck3 := newInvariantChecker()
	ck3.OpData(0, 5, false, -1)
	if len(ck3.violations) == 0 {
		t.Fatal("data for an unissued op not flagged")
	}
	ck3.OpIssued(0, 6, 0, 0, false)
	ck3.OpFinished(1, 6)
	found := false
	for _, v := range ck3.violations {
		if strings.Contains(v, "without delivering data") {
			found = true
		}
	}
	if !found {
		t.Fatalf("finish-before-data not flagged: %v", ck3.violations)
	}
}

// TestConformanceRecoversPerScenario: a panic inside one scenario's run
// is that scenario's one named violation, and the matrix runs on, on the
// same arena — every later scenario passes, and the tampered scenario
// placed last still reports its own violations. The single-core scripts
// here are the one-access ones.
func TestConformanceRecoversPerScenario(t *testing.T) {
	scs := append(singleCoreScenarios(1), multiCoreScenarios()...)
	faulty := &scs[len(scs)/2]
	faulty.panicOnData = true
	scs = append(scs, Scenario{
		Name:   "tamper",
		Policy: cache.LRU, Mode: cache.Multicast,
		Warm:         []Warm{{Tags: []uint64{100, 101, 102, 103}}},
		Accesses:     []Access{{Tag: 100}},
		tamperGolden: true,
	})
	var panics, tampered int
	for _, v := range check(scs) {
		switch {
		case strings.HasPrefix(v, faulty.Name+": panic: seeded fault"):
			panics++
		case strings.HasPrefix(v, "tamper: "):
			tampered++
		default:
			t.Errorf("violation outside the two seeded scenarios: %s", v)
		}
	}
	if panics != 1 || tampered == 0 {
		t.Fatalf("%d panic violations naming %s (want 1), %d from the last scenario (want > 0)",
			panics, faulty.Name, tampered)
	}
}

// TestMultiCoreConformanceCatchesTampering proves the CMP harness is
// alive: warming only the simulated system (not the golden model) must
// produce hit-decision and contents violations.
func TestMultiCoreConformanceCatchesTampering(t *testing.T) {
	sc := Scenario{
		Name: "tamper", Policy: cache.Directory, Mode: cache.Multicast, Cores: 2,
		Warm:     []Warm{{Core: 0, Col: 0, Tags: []uint64{11, 12}}},
		Accesses: []Access{{Core: 0, Col: 0, Tag: 11}},
	}
	if _, v := run(sc, nil); len(v) != 0 {
		t.Fatalf("control scenario should pass, got %v", v)
	}
	sc.tamperGolden = true
	if _, v := run(sc, nil); len(v) == 0 {
		t.Fatal("tampered golden state produced no violations; the harness is dead")
	}
}

// TestDirectoryAttributesCrossEvictions pins the directory's reason to
// exist: in the overlapping-set scenario, the directory must record
// blocks of one core pushed out by the other, and a hit for every owner.
func TestDirectoryAttributesCrossEvictions(t *testing.T) {
	for _, sc := range multiCoreScenarios() {
		if !strings.HasSuffix(sc.Name, "/overlap2") {
			continue
		}
		sys, violations := run(sc, nil)
		if len(violations) != 0 {
			t.Fatalf("%s: %v", sc.Name, violations)
		}
		rep := sys.Dir.Report()
		if rep.CrossDrops == 0 {
			t.Errorf("%s: no cross-core evictions attributed (%+v)", sc.Name, rep)
		}
		if len(rep.Owners) < 2 {
			t.Errorf("%s: directory saw %d owners, want 2", sc.Name, len(rep.Owners))
		}
		for _, o := range rep.Owners {
			if o.Hits == 0 {
				t.Errorf("%s: owner %d recorded no hits", sc.Name, o.Owner)
			}
		}
	}
}
