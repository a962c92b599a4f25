package cache

import (
	"fmt"
	"strings"

	"nucanet/internal/registry"
)

// PolicyEngine is one replacement policy's protocol behavior. The agent
// and controller shells own everything policy-independent — column
// serialization, bank access booking, the multicast probe stash,
// critical-path accounting, completion tracking — and call into the
// engine at each protocol message. Engines are stateless singletons
// (every per-operation datum lives in the op), so one instance serves
// every System concurrently, including parallel sweeps.
//
// New policies register through RegisterPolicy and need no changes to
// the shells; see DESIGN.md ("Protocol engines as a registry") and the
// staticEngine for a worked example.
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

// policies is the policy registry; an entry's index is its Policy id.
// Names fold case and dashes, so "fastLRU", "fastlru", and "fast-lru"
// name the same policy.
var policies = registry.New[PolicyEngine]("cache", "policy", func(s string) string {
	return strings.ReplaceAll(strings.ToLower(s), "-", "")
})

// RegisterPolicy adds a replacement policy under a display name and
// returns its Policy id. Ids are assigned in registration order; the
// built-in policies register first so their ids match the package
// constants. Call from an init path; the registry is read-only once
// simulation starts. It panics on a duplicate (normalized) name.
func RegisterPolicy(name string, eng PolicyEngine) Policy {
	if eng == nil {
		panic("cache: RegisterPolicy with nil engine")
	}
	return Policy(policies.Register(name, eng))
}

// PolicyByName resolves a registered policy name (case- and
// dash-insensitive: "fastLRU" == "fast-lru" == "fastlru").
func PolicyByName(s string) (Policy, error) {
	i, ok := policies.Index(s)
	if !ok {
		return 0, policies.Unknown(s, strings.Join(policies.Names(), ", "))
	}
	return Policy(i), nil
}

// PolicyNames lists the registered policy display names in registration
// order (the built-ins first).
func PolicyNames() []string { return policies.Names() }

// engine returns the policy's registered engine; it panics on an
// unregistered id (New validates ids before any packet flows).
func (p Policy) engine() PolicyEngine {
	if !p.Valid() {
		panic(fmt.Sprintf("cache: unknown policy %v", p))
	}
	return policies.At(int(p))
}

// builtinsDone orders registration: variables initialized from it (the
// extra policies, e.g. Static) are guaranteed to register after the
// built-ins, keeping the built-in ids equal to the package constants
// regardless of file names.
type builtinsDone struct{}

var builtinPolicies = registerBuiltins()

func registerBuiltins() builtinsDone {
	for _, r := range []struct {
		name string
		want Policy
		eng  PolicyEngine
	}{
		{"promotion", Promotion, &promotionEngine{}},
		{"LRU", LRU, &lruEngine{}},
		{"fastLRU", FastLRU, &lruEngine{fast: true}},
	} {
		if got := RegisterPolicy(r.name, r.eng); got != r.want {
			panic(fmt.Sprintf("cache: built-in policy %s registered as id %d, want %d", r.name, got, r.want))
		}
	}
	return builtinsDone{}
}
