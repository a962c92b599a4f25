package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestHistogramExactBelow32(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	for b, c := range h.counts {
		switch {
		case b < 32 && (histUpper(b) != int64(b) || c != 1):
			t.Errorf("bucket %d: upper=%d count=%d, want upper=%d count=1", b, histUpper(b), c, b)
		case b >= 32 && c != 0:
			t.Errorf("bucket %d holds %d values, want the 32 exact buckets only", b, c)
		}
	}
}

func TestHistogramPercentileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Latency-shaped: mostly tens of cycles, a heavy tail into the
		// hundreds (misses) and occasional thousands.
		v := int64(10 + rng.ExpFloat64()*60)
		if rng.Intn(100) == 0 {
			v += int64(rng.Intn(5000))
		}
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		idx := int(q*float64(len(vals))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		exact := vals[idx]
		got := h.Percentile(q)
		if got < exact {
			t.Errorf("p%.0f = %d understates exact %d", 100*q, got, exact)
		}
		// Upper-bound reporting plus 16 sub-buckets per octave: within
		// 1/16 of the exact quantile (and spot-on below 32).
		if float64(got) > float64(exact)*(1+1.0/histSub)+1 {
			t.Errorf("p%.0f = %d overshoots exact %d beyond the error bound", 100*q, got, exact)
		}
	}
}

func TestHistogramPercentileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Percentile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
	h.Record(-5) // clamps to 0
	h.Record(17)
	if got := h.Percentile(1); got != 17 {
		t.Errorf("p100 = %d, want 17", got)
	}
	if got := h.Percentile(0.01); got != 0 {
		t.Errorf("p1 = %d, want 0 (the clamped sample)", got)
	}
	// A gigantic value clamps into the last bucket rather than indexing
	// out of range.
	h.Record(1 << 60)
	if got := h.Percentile(1); got < 1<<41 {
		t.Errorf("clamped huge sample reports p100 = %d", got)
	}
}

// TestHistogramMergeTable pins commutativity and associativity of Merge
// over the new buckets: any combination order of sub-histograms yields
// identical bucket contents, the property sweep aggregation relies on.
func TestHistogramMergeTable(t *testing.T) {
	mk := func(vals ...int64) *Histogram {
		var h Histogram
		for _, v := range vals {
			h.Record(v)
		}
		return &h
	}
	tests := []struct {
		name    string
		parts   [][]int64
		wantN   int64
		wantP99 int64
	}{
		{"empty+empty", [][]int64{{}, {}}, 0, 0},
		{"empty+loaded", [][]int64{{}, {5, 10, 500}}, 3, 511},
		{"disjoint ranges", [][]int64{{1, 2, 3}, {1000, 2000}, {40}}, 6, 2047},
		{"overlapping", [][]int64{{25, 25, 31}, {25, 32, 33}, {26}}, 7, 33},
		{"tail heavy", [][]int64{{10, 10, 10, 10}, {100000}}, 5, 102399},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Forward order.
			var fwd Histogram
			for _, p := range tt.parts {
				fwd.Merge(mk(p...))
			}
			// Reverse order (commutativity).
			var rev Histogram
			for i := len(tt.parts) - 1; i >= 0; i-- {
				rev.Merge(mk(tt.parts[i]...))
			}
			// Right-leaning tree (associativity): a+(b+(c+...)).
			tree := &Histogram{}
			for i := len(tt.parts) - 1; i >= 0; i-- {
				next := mk(tt.parts[i]...)
				next.Merge(tree)
				tree = next
			}
			if !reflect.DeepEqual(&fwd, &rev) || !reflect.DeepEqual(&fwd, tree) {
				t.Fatalf("merge order changes buckets:\nfwd  %+v\nrev  %+v\ntree %+v",
					fwd.counts, rev.counts, tree.counts)
			}
			if fwd.N != tt.wantN {
				t.Errorf("merged N = %d, want %d", fwd.N, tt.wantN)
			}
			if got := fwd.Percentile(0.99); got != tt.wantP99 {
				t.Errorf("merged p99 = %d, want %d", got, tt.wantP99)
			}
			// The merged histogram equals recording every sample into one.
			var all []int64
			for _, p := range tt.parts {
				all = append(all, p...)
			}
			if one := mk(all...); !reflect.DeepEqual(&fwd, one) {
				t.Errorf("merge != single-histogram recording:\nmerged %+v\nsingle %+v",
					fwd.counts, one.counts)
			}
		})
	}
}

// TestLatencyMergeCombinesHist pins that Latency.Merge carries the
// histogram: combined percentiles are exact over both runs.
func TestLatencyMergeCombinesHist(t *testing.T) {
	a, b := newLatency(2), newLatency(2)
	for i := 0; i < 99; i++ {
		a.RecordHit(10, 0, Breakdown{Bank: 10})
	}
	b.RecordMiss(800, Breakdown{Memory: 800})
	a.Merge(b)
	if got := a.Percentile(0.5); got != 10 {
		t.Errorf("merged p50 = %d, want 10", got)
	}
	if got := a.Percentile(1); got < 800 {
		t.Errorf("merged p100 = %d, want >= 800", got)
	}
	if a.Hist.N != 100 {
		t.Errorf("merged Hist.N = %d, want 100", a.Hist.N)
	}
}
