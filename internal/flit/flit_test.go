package flit

import (
	"strings"
	"testing"
)

func TestKindFlits(t *testing.T) {
	oneFlit := []Kind{ReadReq, MissNotify, CompleteNotify, WriteDone, MemReadReq}
	for _, k := range oneFlit {
		if k.Flits() != 1 {
			t.Errorf("%v.Flits() = %d, want 1", k, k.Flits())
		}
	}
	fiveFlit := []Kind{WriteData, ReplaceBlock, BlockToMRU, HitData, MemBlock, DataToCore, WriteBack}
	for _, k := range fiveFlit {
		if k.Flits() != BlockFlits {
			t.Errorf("%v.Flits() = %d, want %d", k, k.Flits(), BlockFlits)
		}
	}
}

func TestKindStringsUnique(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestEndpointString(t *testing.T) {
	if ToBank.String() != "bank" || ToCore.String() != "core" || ToMem.String() != "mem" {
		t.Error("endpoint names wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 1, Kind: ReadReq, Src: 2, Dst: 3, DstEp: ToBank, Addr: 0x40, PathDeliver: true}
	s := p.String()
	for _, want := range []string{"ReadReq", "2->3", "bank", "mcast"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
