// Package energy estimates the energy consumed by a networked cache run —
// the analysis the paper lists as future work ("another direction for
// future work is energy consumption analysis of the networked cache
// systems"). It is an activity-based model: every flit-hop pays link +
// switch energy, every buffered flit pays an SRAM write/read pair, every
// bank access pays a capacity-scaled array access, and every off-chip
// block transfer pays DRAM energy.
//
// Absolute joules are indicative (65 nm-era constants); the model's value
// is comparative — e.g. the halo designs move far fewer flit-hops per
// access than the mesh, so their network energy collapses along with
// their network area.
package energy

import (
	"math"
	"sort"
)

// Model holds per-event energies in picojoules.
type Model struct {
	FlitHopPJ  float64 // one flit through one link + crossbar
	FlitBufPJ  float64 // one flit written to and read from a VC buffer
	Bank64KBPJ float64 // one access to a 64 KB bank array
	BankExp    float64 // capacity exponent for larger banks
	MemBlockPJ float64 // one 64 B block to/from off-chip memory
}

// DefaultModel returns 65 nm-flavored constants.
func DefaultModel() Model {
	return Model{
		FlitHopPJ:  50,    // 128-bit flit, ~1 mm link + switch
		FlitBufPJ:  20,    // 128-bit SRAM write + read
		Bank64KBPJ: 400,   // Cacti-era 64 KB read
		BankExp:    0.5,   // access energy grows sublinearly with capacity
		MemBlockPJ: 15000, // off-chip 64 B transfer
	}
}

// BankAccessPJ returns the energy of one access to a bank of the given
// capacity.
func (m Model) BankAccessPJ(sizeKB int) float64 {
	return m.Bank64KBPJ * math.Pow(float64(sizeKB)/64, m.BankExp)
}

// Activity is the event counts of one run, harvested from the simulator's
// statistics.
type Activity struct {
	FlitHops uint64 // router.Stats.FlitsRouted
	// BankAccesses maps bank capacity (KB) to access count.
	BankAccesses map[int]uint64
	MemBlocks    uint64 // reads + writebacks
	Accesses     uint64 // CPU-visible L2 accesses (for per-access figures)
}

// Report is the energy split of one run.
type Report struct {
	NetworkPJ float64
	BankPJ    float64
	MemoryPJ  float64
	Accesses  uint64
}

// TotalPJ returns the summed energy.
func (r Report) TotalPJ() float64 { return r.NetworkPJ + r.BankPJ + r.MemoryPJ }

// PerAccessNJ returns nanojoules per L2 access.
func (r Report) PerAccessNJ() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return r.TotalPJ() / float64(r.Accesses) / 1000
}

// NetworkShare returns the network's fraction of total energy.
func (r Report) NetworkShare() float64 {
	if r.TotalPJ() == 0 {
		return 0
	}
	return r.NetworkPJ / r.TotalPJ()
}

// Estimate converts activity counts to energy.
func (m Model) Estimate(a Activity) Report {
	rep := Report{Accesses: a.Accesses}
	rep.NetworkPJ = float64(a.FlitHops) * (m.FlitHopPJ + m.FlitBufPJ)
	// Sum bank sizes in sorted order: float addition is not associative,
	// and ranging the map directly made the low bits of BankPJ depend on
	// Go's randomized map iteration — the one nondeterministic result
	// field in an otherwise bit-reproducible simulator.
	kbs := make([]int, 0, len(a.BankAccesses))
	for kb := range a.BankAccesses {
		kbs = append(kbs, kb)
	}
	sort.Ints(kbs)
	for _, kb := range kbs {
		rep.BankPJ += float64(a.BankAccesses[kb]) * m.BankAccessPJ(kb)
	}
	rep.MemoryPJ = float64(a.MemBlocks) * m.MemBlockPJ
	return rep
}
