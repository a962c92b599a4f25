// Package cache implements the networked L2 cache protocols of the paper:
// the classic LRU and Promotion replacement schemes of D-NUCA and the
// proposed Fast-LRU replacement (Section 3.2), each in unicast and
// multicast form, running over the interconnect of the network package.
//
// A bank set is one column of banks; the cache controller at the core
// serializes operations per column (replacement chains are stateful) while
// different columns proceed in parallel. All protocol state travels in the
// packets; bank agents are stateless between messages, so late or stale
// packets (e.g. miss notifications racing a completed multicast hit) are
// harmless.
//
// Each replacement policy is a PolicyEngine named in one table
// (engine.go), indexed by its Policy id. The agent and controller shells
// are policy-free (the directory policy is Fast-LRU's engine plus the
// ownership counts the shell keeps, directory.go); adding a policy means
// adding one engine file and one row (see engine_promotion.go).
package cache

import "fmt"

// Policy identifies a replacement scheme: an index into the policies
// table.
type Policy uint8

const (
	// Promotion is D-NUCA's scheme: a hit block swaps with the block in
	// the next-closer bank; a miss fills the MRU bank and recursively
	// pushes every block one bank farther.
	Promotion Policy = iota
	// LRU is exact (hierarchical) LRU ordering maintained with explicit
	// block moves after each hit: the hit block moves to the MRU bank
	// and all closer blocks shift one bank farther.
	LRU
	// FastLRU is the paper's scheme: identical ordering to LRU, but each
	// bank evicts during the tag-match access and pushes its victim
	// along with the request, overlapping replacement with the search.
	FastLRU
	// Directory is the ownership-tracking CMP policy: Fast-LRU's engine,
	// plus a directory of block owners the protocol shell keeps
	// (directory.go).
	Directory
)

// String returns the policy's display name.
func (p Policy) String() string {
	if p.Valid() {
		return policies[p].name
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Mode selects how tag-match requests reach the banks of a column.
type Mode uint8

const (
	// Unicast probes banks one by one, closest first.
	Unicast Mode = iota
	// Multicast delivers the request to every bank of the column using
	// the router's path-multicast support; banks tag-match in parallel.
	Multicast
)

func (m Mode) String() string {
	if m == Unicast {
		return "unicast"
	}
	return "multicast"
}

// Valid reports whether p names a policy.
func (p Policy) Valid() bool { return int(p) < len(policies) }

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m <= Multicast }

// ParseMode reads a mode name ("unicast", "multicast").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "unicast":
		return Unicast, nil
	case "multicast":
		return Multicast, nil
	}
	return 0, fmt.Errorf("cache: unknown mode %q (registered: unicast, multicast)", s)
}
