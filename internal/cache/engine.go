package cache

import (
	"fmt"
	"strings"
)

// PolicyEngine is one replacement policy's protocol behavior. The agent
// and controller shells own everything policy-independent — column
// serialization, bank access booking, the multicast probe stash,
// critical-path accounting, completion tracking — and call into the
// engine at each protocol message. The agent shell also keeps the
// directory policy's ownership counts (directory.go). Engines are stateless singletons
// (every per-operation datum lives in the op), so one instance serves
// every System concurrently, including parallel sweeps.
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
	// Chain handles a plain replacement-chain block arriving from the
	// next-closer bank.
	Chain(a *agent, m *chainMsg, now int64)
	// Unit handles the unicast Fast-LRU combined request+block unit at
	// banks beyond the MRU bank.
	Unit(a *agent, m *unitMsg, now int64)
	// Store handles the hit block arriving at the MRU bank.
	Store(a *agent, m *storeMsg, now int64)
	// Promote handles a Promotion hit block arriving one bank closer.
	Promote(a *agent, m *promoteMsg, now int64)
	// Demote stores a displaced block back into the hit bank's hole.
	Demote(a *agent, m *demoteMsg, now int64)

	// GoldenAccess applies one access to the functional reference model
	// (no timing, no network): st is the per-bank tag state of the
	// accessed set, MRU first within each bank; (hb, hw) locate the tag
	// (hb == -1 on miss). It must agree exactly with the engine's
	// timing-side protocol on the hit decision, the hit bank, and the
	// final contents — the conformance harness enforces this.
	GoldenAccess(g *Golden, st [][]uint64, hb, hw int, tag uint64) (hit bool, bankPos int, evicted uint64, evictedOK bool)
}

// baseEngine supplies panicking handlers for the messages a policy never
// produces; embedding it keeps every engine exhaustive over the message
// catalogue while documenting which messages its protocol actually uses
// (an unexpected one fails loudly instead of being silently dropped).
type baseEngine struct{}

func (baseEngine) Chain(a *agent, m *chainMsg, now int64) {
	panic(fmt.Sprintf("cache: %v sent no ReplaceBlock chain, bank %d/%d got one", a.sys.Policy, a.col, a.pos))
}

func (baseEngine) Unit(a *agent, m *unitMsg, now int64) {
	panic(fmt.Sprintf("cache: %v sent no Fast-LRU unit, bank %d/%d got one", a.sys.Policy, a.col, a.pos))
}

func (baseEngine) Store(a *agent, m *storeMsg, now int64) {
	panic(fmt.Sprintf("cache: %v sent no BlockToMRU, bank %d/%d got one", a.sys.Policy, a.col, a.pos))
}

func (baseEngine) Promote(a *agent, m *promoteMsg, now int64) {
	panic(fmt.Sprintf("cache: %v sent no promotion, bank %d/%d got one", a.sys.Policy, a.col, a.pos))
}

func (baseEngine) Demote(a *agent, m *demoteMsg, now int64) {
	panic(fmt.Sprintf("cache: %v sent no demotion, bank %d/%d got one", a.sys.Policy, a.col, a.pos))
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

// PolicyByName resolves a policy name, ignoring case and dashes:
// "fastLRU" == "fast-lru" == "fastlru".
func PolicyByName(s string) (Policy, error) {
	key := strings.ReplaceAll(s, "-", "")
	for p, e := range policies {
		if strings.EqualFold(key, e.name) {
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
