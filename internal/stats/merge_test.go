package stats

import (
	"reflect"
	"testing"
)

// fill populates an accumulator with a deterministic access pattern so
// merge results can be computed by hand.
func fill(l *Latency, hits []int64, misses []int64, occ []int64) {
	for i, lat := range hits {
		l.RecordHit(lat, i%max(len(l.hitWays), 1), Breakdown{Bank: 1, Network: lat - 2, Memory: 1})
	}
	for _, lat := range misses {
		l.RecordMiss(lat, Breakdown{Bank: 2, Network: 3, Memory: lat - 5})
	}
	for _, s := range occ {
		l.AddOccupancy(s)
	}
}

func TestLatencyMergeTable(t *testing.T) {
	tests := []struct {
		name     string
		a, b     func() *Latency
		wantN    int64
		wantSum  int64
		wantMax  int64
		wantHits int64
		wantOcc  int64
	}{
		{
			name: "empty+empty",
			a:    func() *Latency { return newLatency(4) },
			b:    func() *Latency { return newLatency(4) },
		},
		{
			name: "empty+nonempty",
			a:    func() *Latency { return newLatency(4) },
			b: func() *Latency {
				l := newLatency(4)
				fill(l, []int64{10, 20}, []int64{100}, []int64{30})
				return l
			},
			wantN: 3, wantSum: 130, wantMax: 100, wantHits: 2, wantOcc: 1,
		},
		{
			name: "nonempty+empty",
			a: func() *Latency {
				l := newLatency(4)
				fill(l, []int64{10, 20}, []int64{100}, []int64{30})
				return l
			},
			b:     func() *Latency { return newLatency(4) },
			wantN: 3, wantSum: 130, wantMax: 100, wantHits: 2, wantOcc: 1,
		},
		{
			name: "max and occupancy combine",
			a: func() *Latency {
				l := newLatency(2)
				fill(l, []int64{50}, nil, []int64{60, 70})
				return l
			},
			b: func() *Latency {
				l := newLatency(2)
				fill(l, []int64{10}, []int64{200}, []int64{5})
				return l
			},
			wantN: 3, wantSum: 260, wantMax: 200, wantHits: 2, wantOcc: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := tt.a(), tt.b()
			a.Merge(b)
			if a.Count != tt.wantN || a.Sum != tt.wantSum || a.MaxLat != tt.wantMax ||
				a.Hits != tt.wantHits || a.OccCount != tt.wantOcc {
				t.Errorf("merged = n%d sum%d max%d hits%d occ%d, want n%d sum%d max%d hits%d occ%d",
					a.Count, a.Sum, a.MaxLat, a.Hits, a.OccCount,
					tt.wantN, tt.wantSum, tt.wantMax, tt.wantHits, tt.wantOcc)
			}
			// Breakdown fields must stay consistent with the totals.
			if got := a.Bank + a.Network + a.Memory; got != a.Sum {
				t.Errorf("breakdown sums to %d, want %d", got, a.Sum)
			}
		})
	}
}

func TestLatencyMergeOrderInvariance(t *testing.T) {
	mk := func() []*Latency {
		l1, l2, l3 := newLatency(4), newLatency(4), newLatency(4)
		fill(l1, []int64{10, 12, 14}, []int64{150}, []int64{20})
		fill(l2, []int64{8}, []int64{170, 180}, nil)
		fill(l3, nil, nil, []int64{33, 44})
		return []*Latency{l1, l2, l3}
	}
	fwd := newLatency(4)
	for _, l := range mk() {
		fwd.Merge(l)
	}
	rev := newLatency(4)
	ls := mk()
	for i := len(ls) - 1; i >= 0; i-- {
		rev.Merge(ls[i])
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("merge is order-dependent:\nfwd %+v hitways %v\nrev %+v hitways %v",
			fwd, fwd.HitWays(), rev, rev.HitWays())
	}
}

func TestLatencyMergeGrowsHitWays(t *testing.T) {
	small, big := newLatency(2), newLatency(8)
	small.RecordHit(5, 1, Breakdown{Network: 5})
	big.RecordHit(7, 6, Breakdown{Network: 7})
	small.Merge(big)
	ways := small.HitWays()
	if len(ways) != 8 || ways[1] != 1 || ways[6] != 1 {
		t.Errorf("hitWays after merge = %v, want len 8 with ways 1 and 6 set", ways)
	}
}

func TestLatencyCloneIsDeep(t *testing.T) {
	l := newLatency(4)
	fill(l, []int64{10, 20}, []int64{90}, []int64{15})
	c := l.Clone()
	if !reflect.DeepEqual(l, c) {
		t.Fatalf("clone differs: %+v vs %+v", l, c)
	}
	// Mutating the clone must not touch the original's histogram.
	c.RecordHit(5, 0, Breakdown{Bank: 5})
	if l.Count != 3 || l.HitWays()[0] == c.HitWays()[0] {
		t.Errorf("clone aliases the original: orig %v clone %v", l.HitWays(), c.HitWays())
	}
}

func TestLatencyCloneEmpty(t *testing.T) {
	l := newLatency(0)
	c := l.Clone()
	c.Merge(l)
	if c.Count != 0 {
		t.Errorf("empty clone+merge produced counts: %+v", c)
	}
}
