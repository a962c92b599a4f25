package conformance_test

import (
	"fmt"
	"slices"
	"strings"

	"nucanet/internal/cache"
)

// modes are the two request modes every matrix covers.
var modes = []cache.Mode{cache.Unicast, cache.Multicast}

// rwName labels a scenario's access kind.
func rwName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Tags of the generated single-core scripts: warm tag i of a set is
// warmTag+i, MRU first, and the i-th fresh tag a script names is
// freshTag+i.
const (
	warmTag  = 100
	freshTag = 900
)

// warmTags returns the warm tags of a set holding n blocks.
func warmTags(n int) []uint64 {
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = uint64(warmTag + i)
	}
	return tags
}

// occupancies are the warm block counts of the generated scripts' set:
// empty, one and two blocks (a cold column) and full.
var occupancies = []int{0, 1, 2, 4}

// scripts returns every script of k accesses to (column 0, set 0) over
// a set warmed with occ blocks. Each access reads or writes one of the
// warm tags, a fresh tag the script already named, or the next fresh
// tag: fresh tags are numbered in order of first appearance, so no
// script is a relabelling of another.
func scripts(occ, k int) [][]Access {
	var out [][]Access
	var grow func(script []Access, fresh int)
	grow = func(script []Access, fresh int) {
		if len(script) == k {
			out = append(out, slices.Clone(script))
			return
		}
		tags := warmTags(occ)
		for i := 0; i <= fresh; i++ {
			tags = append(tags, uint64(freshTag+i))
		}
		for _, tag := range tags {
			next := fresh
			if tag == uint64(freshTag+fresh) {
				next++
			}
			for _, write := range []bool{false, true} {
				grow(append(script, Access{Tag: tag, Write: write}), next)
			}
		}
	}
	grow(nil, 0)
	return out
}

// scriptName spells a script as its accesses, e.g. "r102,w900".
func scriptName(script []Access) string {
	parts := make([]string, len(script))
	for i, acc := range script {
		parts[i] = fmt.Sprintf("%c%d", rwName(acc.Write)[0], acc.Tag)
	}
	return strings.Join(parts, ",")
}

// singleCoreScenarios enumerates the single-controller matrix for every
// policy and mode. It generates every script of 1 to maxK accesses on
// one set at every occupancy, issued one at a time and pipelined, and
// adds the hand-written scripts the generated space does not reach: a
// dirty write-back (six accesses), a pipelined stress script (two sets),
// and the two-chain family (four columns). The enumeration walks
// cache.PolicyNames, so a row added to the policies table is
// conformance-checked without touching this file.
func singleCoreScenarios(maxK int) []Scenario {
	var scs []Scenario
	for id := range cache.PolicyNames() {
		p := cache.Policy(id) // registration order
		for _, mode := range modes {
			for _, pipelined := range []bool{false, true} {
				order := "seq"
				if pipelined {
					order = "pipe"
				}
				for _, occ := range occupancies {
					warm := []Warm{{Tags: warmTags(occ)}}
					for k := 1; k <= maxK; k++ {
						for _, script := range scripts(occ, k) {
							scs = append(scs, Scenario{
								Name:   fmt.Sprintf("%v/%v/%s/occ%d/%s", p, mode, order, occ, scriptName(script)),
								Policy: p, Mode: mode, Pipelined: pipelined,
								Warm: warm, Accesses: script,
							})
						}
					}
				}
			}

			// Dirty writeback: dirty the LRU-most block of a full set,
			// then stream misses until the dirty victim leaves the cache.
			scs = append(scs, Scenario{
				Name:   fmt.Sprintf("%v/%v/writeback", p, mode),
				Policy: p, Mode: mode,
				Warm: []Warm{{Tags: warmTags(4)}},
				Accesses: []Access{
					{Tag: 103, Write: true},
					{Tag: 900}, {Tag: 901}, {Tag: 902}, {Tag: 903}, {Tag: 904},
				},
			})

			// Pipelined stress: two sets of one column in flight at once
			// (the ColumnWindow), mixing hits at every depth with misses;
			// under multicast this also exercises the probe stash.
			scs = append(scs, Scenario{
				Name:   fmt.Sprintf("%v/%v/pipelined", p, mode),
				Policy: p, Mode: mode, Pipelined: true,
				Warm: []Warm{{Tags: warmTags(4)}, {Set: 1, Tags: warmTags(2)}},
				Accesses: []Access{
					{Tag: 103, Set: 0}, {Tag: 910, Set: 1},
					{Tag: 911, Set: 0, Write: true}, {Tag: 101, Set: 1},
					{Tag: 100, Set: 0}, {Tag: 912, Set: 1, Write: true},
					{Tag: 102, Set: 0, Write: true}, {Tag: 100, Set: 1},
				},
			})
		}
	}
	return append(scs, twoChainScenarios()...)
}

// twoChainScenarios covers the operations that drain two replacement
// chains. A multicast Fast-LRU hit beyond the MRU bank of a full set
// sends the hit block to the MRU bank while the MRU bank's eviction
// pushes down to the hit bank's hole; the directory policy runs the same
// protocol. Here a hit at bank 2 of (column 2, set 1) shares the mesh
// with hits at bank 1 of columns 3 and 1, whose traffic delays one of
// its chains, and a second access to the same set follows it in the
// script. That access may start only once both chains have landed: if
// the column were released on the first completion notice, the second
// access would meet a block still in flight. (The same pair of chains
// with no other traffic in the mesh is the generated pipelined script
// "r102,r101" on a full set.)
func twoChainScenarios() []Scenario {
	tags := warmTags(4)
	var warm []Warm
	for col := 0; col < 4; col++ {
		for set := 0; set < 2; set++ {
			warm = append(warm, Warm{Col: col, Set: set, Tags: tags})
		}
	}
	var scs []Scenario
	for _, p := range []cache.Policy{cache.FastLRU, cache.Directory} {
		for _, next := range tags {
			scs = append(scs, Scenario{
				Name:   fmt.Sprintf("%v/%v/two-chain/then%d", p, cache.Multicast, next),
				Policy: p, Mode: cache.Multicast, Pipelined: true, Warm: warm,
				Accesses: []Access{
					{Col: 3, Tag: 101}, {Col: 2, Set: 1, Tag: 102},
					{Col: 1, Set: 1, Tag: 101}, {Col: 2, Set: 1, Tag: next},
				},
			})
		}
	}
	return scs
}

// multiCoreScenarios enumerates the CMP matrix under the directory
// policy: for each mode, every (core, local/remote home) pair is probed
// at every hit depth and on misses, read and write; plus
// overlapping-set interleavings (two- and four-core), a cross-core
// dirty-writeback chase, and a pipelined script with concurrent
// cross-fabric traffic.
func multiCoreScenarios() []Scenario {
	warm4 := func(core, col int) Warm {
		base := uint64(100 * (core + 1))
		return Warm{Core: core, Col: col,
			Tags: []uint64{base + 1, base + 2, base + 3, base + 4}}
	}

	var scs []Scenario
	add := func(sc Scenario) {
		sc.Policy = cache.Directory
		scs = append(scs, sc)
	}
	for _, mode := range modes {
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
				rw := rwName(write)
				add(Scenario{
					Name: fmt.Sprintf("%v/core%d/%s/miss/%s", mode, pl.core, pl.kind, rw),
					Mode: mode, Cores: 2, Warm: []Warm{w},
					Accesses: []Access{{Core: pl.core, Col: pl.col, Tag: 999, Write: write}},
				})
				for hp, tag := range w.Tags {
					add(Scenario{
						Name: fmt.Sprintf("%v/core%d/%s/hit@%d/%s", mode, pl.core, pl.kind, hp, rw),
						Mode: mode, Cores: 2, Warm: []Warm{w},
						Accesses: []Access{{Core: pl.core, Col: pl.col, Tag: tag, Write: write}},
					})
				}
			}
		}

		// Overlapping set: both cores' working sets share (col 2, set 0);
		// misses push the other core's blocks out (cross-core evictions
		// the directory must attribute).
		add(Scenario{
			Name: fmt.Sprintf("%v/overlap2", mode),
			Mode: mode, Cores: 2,
			Warm: []Warm{
				{Core: 0, Col: 2, Tags: []uint64{11, 12}},
				{Core: 1, Col: 2, Tags: []uint64{99, 98}},
			},
			Accesses: []Access{
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
		add(Scenario{
			Name: fmt.Sprintf("%v/writeback-cross", mode),
			Mode: mode, Cores: 2,
			Warm: []Warm{warm4(0, 3)},
			Accesses: []Access{
				{Core: 0, Col: 3, Tag: 104, Write: true},
				{Core: 1, Col: 3, Tag: 301}, {Core: 1, Col: 3, Tag: 302},
				{Core: 1, Col: 3, Tag: 303}, {Core: 1, Col: 3, Tag: 304},
				{Core: 1, Col: 3, Tag: 305},
			},
		})

		// Four cores, one column: every core owns one warm way of
		// (col 0, set 0), hits it, then misses — maximal interleaving of
		// owners within a single replacement chain.
		fourWarm := make([]Warm, 4)
		var fourAcc []Access
		for c := 0; c < 4; c++ {
			fourWarm[c] = Warm{Core: c, Tags: []uint64{uint64(10*c + 1)}}
			fourAcc = append(fourAcc, Access{Core: c, Tag: uint64(10*c + 1)})
		}
		for c := 0; c < 4; c++ {
			fourAcc = append(fourAcc, Access{Core: c, Tag: uint64(10*c + 7), Write: c%2 == 1})
		}
		add(Scenario{
			Name: fmt.Sprintf("%v/overlap4", mode),
			Mode: mode, Cores: 4, Warm: fourWarm, Accesses: fourAcc,
		})

		// Pipelined: both cores issue to their remote homes at once, so
		// request, data, and replacement traffic from different owners
		// share the fabric concurrently.
		add(Scenario{
			Name: fmt.Sprintf("%v/pipelined", mode),
			Mode: mode, Cores: 2, Pipelined: true,
			Warm: []Warm{
				{Core: 0, Col: 3, Set: 1, Tags: []uint64{111, 112}},
				{Core: 1, Col: 0, Set: 1, Tags: []uint64{211, 212}},
			},
			Accesses: []Access{
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
