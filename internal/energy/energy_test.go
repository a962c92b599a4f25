package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBankAccessScaling(t *testing.T) {
	m := DefaultModel()
	if got := m.BankAccessPJ(64); got != m.Bank64KBPJ {
		t.Fatalf("64KB access = %v", got)
	}
	// Sublinear: a 512 KB access costs less than 8x a 64 KB access.
	r := m.BankAccessPJ(512) / m.BankAccessPJ(64)
	if r <= 1 || r >= 8 {
		t.Fatalf("512/64 energy ratio = %v, want in (1, 8)", r)
	}
	if math.Abs(r-math.Sqrt(8)) > 0.01 {
		t.Fatalf("exponent 0.5 should give sqrt(8), got %v", r)
	}
}

func TestEstimateSplit(t *testing.T) {
	m := Model{FlitHopPJ: 10, FlitBufPJ: 5, Bank64KBPJ: 100, BankExp: 0.5, MemBlockPJ: 1000}
	rep := m.Estimate(Activity{
		FlitHops:     20,
		BankAccesses: map[int]uint64{64: 3},
		MemBlocks:    2,
		Accesses:     4,
	})
	if rep.NetworkPJ != 20*15 {
		t.Fatalf("network = %v", rep.NetworkPJ)
	}
	if rep.BankPJ != 300 {
		t.Fatalf("bank = %v", rep.BankPJ)
	}
	if rep.MemoryPJ != 2000 {
		t.Fatalf("memory = %v", rep.MemoryPJ)
	}
	if got := rep.TotalPJ(); got != 300+300+2000 {
		t.Fatalf("total = %v", got)
	}
	if got := rep.PerAccessNJ(); math.Abs(got-2600.0/4/1000) > 1e-12 {
		t.Fatalf("per access = %v", got)
	}
}

func TestEmptyReport(t *testing.T) {
	var r Report
	if r.PerAccessNJ() != 0 || r.NetworkShare() != 0 {
		t.Fatal("empty report must read zero")
	}
}

func TestEstimateNonNegativeProperty(t *testing.T) {
	m := DefaultModel()
	if err := quick.Check(func(hops, banks, mems, accs uint32) bool {
		rep := m.Estimate(Activity{
			FlitHops:     uint64(hops),
			BankAccesses: map[int]uint64{64: uint64(banks), 512: uint64(banks / 2)},
			MemBlocks:    uint64(mems),
			Accesses:     uint64(accs),
		})
		return rep.TotalPJ() >= 0 && rep.NetworkShare() >= 0 && rep.NetworkShare() <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}
