package cache

import (
	"fmt"
	"strings"
)

// PolicyEngine is one replacement policy's protocol behavior. The agent
// and controller shells own everything policy-independent — column
// serialization, bank access booking, the multicast probe stash,
// critical-path accounting, completion tracking, and the bank-to-bank
// block hop every policy shares (chainStep) — and call into the engine
// where policies differ: the tag match and the memory fill. The agent
// shell also keeps the directory policy's ownership counts
// (directory.go). Engines are stateless singletons (every per-operation
// datum lives in the op), so one instance serves every System
// concurrently, including parallel sweeps.
//
// A new policy is one row in the policies table and needs no change to
// the shells; promotionEngine is the smallest example.
type PolicyEngine interface {
	// Probe handles a tag-match request at a bank: the unicast first
	// hop or a multicast delivery. The shell marks the bank probed
	// (replaying stashed traffic) after Probe returns.
	Probe(a *agent, o *op, now int64)
	// Fill stores the block returning from memory into the MRU bank and
	// forwards the data to the core.
	Fill(a *agent, o *op, now int64)

	// GoldenAccess applies one access to the functional reference model
	// (no timing, no network): st is the per-bank tag state of the
	// accessed set, MRU first within each bank; (hb, hw) locate the tag
	// (hb == -1 on miss). It must agree exactly with the engine's
	// timing-side protocol on the hit decision, the hit bank, and the
	// final contents — the conformance harness enforces this.
	GoldenAccess(g *Golden, st [][]uint64, hb, hw int, tag uint64) (hit bool, bankPos int, evicted uint64, evictedOK bool)
}

// policies is the closed catalogue of replacement policies, indexed by
// Policy: a new policy is one constant and one row here, and needs no
// change to the shells. The directory policy is Fast-LRU's engine; what
// sets it apart is the DirStats the shell keeps when it runs.
var policies = [...]struct {
	name string
	eng  PolicyEngine
}{
	Promotion: {"promotion", &promotionEngine{}},
	LRU:       {"LRU", &lruEngine{}},
	FastLRU:   {"fastLRU", &lruEngine{fast: true}},
	Directory: {"directory", &lruEngine{fast: true}},
}

// PolicyByName resolves a policy name, ignoring case and dashes
// (sameName): "fastLRU" == "fast-lru" == "fastlru".
func PolicyByName(s string) (Policy, error) {
	for p, e := range policies {
		if sameName(s, e.name) {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("cache: unknown policy %q (registered: %s)", s, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists the policy display names in Policy id order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for p, e := range policies {
		names[p] = e.name
	}
	return names
}

// engine returns the policy's engine; it panics on an unknown id (New
// validates ids before any packet flows).
func (p Policy) engine() PolicyEngine {
	if !p.Valid() {
		panic(fmt.Sprintf("cache: unknown policy %v", p))
	}
	return policies[p].eng
}
