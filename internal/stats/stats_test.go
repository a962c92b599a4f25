package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAverages(t *testing.T) {
	l := NewLatency(16)
	l.RecordHit(10, 0, Breakdown{Bank: 2, Network: 8})
	l.RecordHit(20, 3, Breakdown{Bank: 5, Network: 15})
	l.RecordMiss(200, Breakdown{Bank: 30, Network: 40, Memory: 130})
	if l.Count != 3 || l.Hits != 2 || l.Misses != 1 {
		t.Fatalf("counts wrong: %+v", l)
	}
	if got := l.Avg(); math.Abs(got-230.0/3) > 1e-9 {
		t.Fatalf("Avg = %v", got)
	}
	if got := l.AvgHit(); got != 15 {
		t.Fatalf("AvgHit = %v", got)
	}
	if got := l.AvgMiss(); got != 200 {
		t.Fatalf("AvgMiss = %v", got)
	}
	if got := l.HitRate(); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("HitRate = %v", got)
	}
	if l.MaxLat != 200 {
		t.Fatalf("MaxLat = %d", l.MaxLat)
	}
}

func TestSharesSumToOne(t *testing.T) {
	if err := quick.Check(func(vals [][3]uint8) bool {
		l := NewLatency(4)
		any := false
		for _, v := range vals {
			b := Breakdown{Bank: int64(v[0]), Network: int64(v[1]), Memory: int64(v[2])}
			total := b.Bank + b.Network + b.Memory
			if total == 0 {
				continue
			}
			any = true
			l.RecordHit(total, 0, b)
		}
		bk, nw, mm := l.Shares()
		if !any {
			return bk == 0 && nw == 0 && mm == 0
		}
		return math.Abs(bk+nw+mm-1) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHitWayHistogram(t *testing.T) {
	l := NewLatency(4)
	l.RecordHit(1, 0, Breakdown{Network: 1})
	l.RecordHit(1, 0, Breakdown{Network: 1})
	l.RecordHit(1, 3, Breakdown{Network: 1})
	l.RecordHit(1, 99, Breakdown{Network: 1}) // out of range: dropped
	if got := l.HitWayShare(0); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("way 0 share = %v", got)
	}
	if got := l.HitWayShare(3); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("way 3 share = %v", got)
	}
	hw := l.HitWays()
	if len(hw) != 4 || hw[0] != 2 || hw[3] != 1 {
		t.Fatalf("histogram = %v", hw)
	}
}

func TestEmptyIsZero(t *testing.T) {
	l := NewLatency(2)
	if l.Avg() != 0 || l.AvgHit() != 0 || l.AvgMiss() != 0 || l.HitRate() != 0 {
		t.Fatal("empty stats must read zero")
	}
}
