// Package stats aggregates per-access measurements into the quantities
// the paper reports: average access/hit/miss latency (Figure 8), the
// bank/network/memory breakdown of the total latency (Figure 7), and the
// hit-way distribution that explains why LRU beats Promotion.
package stats

import "fmt"

// Breakdown splits cycles of one access among the three latency sources.
type Breakdown struct {
	Bank    int64
	Network int64
	Memory  int64
}

// Latency accumulates access latencies for one run.
type Latency struct {
	Count  int64
	Sum    int64
	MaxLat int64

	Hits    int64
	HitSum  int64
	Misses  int64
	MissSum int64

	Bank    int64
	Network int64
	Memory  int64

	// Occupancy tracks how long each operation held its bank-set column
	// (request issue to replacement-chain completion). Fast-LRU's
	// structural advantage over classic LRU is exactly here: tag-match
	// overlaps replacement, so the column frees much earlier.
	OccCount int64
	OccSum   int64

	// Hist buckets every access latency so the tail (p50/p90/p99) is
	// reportable, not just the mean; Merge combines bucket-exactly across
	// runs of a parallel sweep.
	Hist Histogram

	hitWays []int64
}

// NewLatency sizes the hit-way histogram for a bank-set associativity.
func NewLatency(ways int) *Latency {
	return &Latency{hitWays: make([]int64, ways)}
}

// RecordHit logs a hit at the given bank-set way.
func (l *Latency) RecordHit(lat int64, way int, b Breakdown) {
	l.record(lat, b)
	l.Hits++
	l.HitSum += lat
	if way >= 0 && way < len(l.hitWays) {
		l.hitWays[way]++
	}
}

// RecordMiss logs a miss serviced by memory.
func (l *Latency) RecordMiss(lat int64, b Breakdown) {
	l.record(lat, b)
	l.Misses++
	l.MissSum += lat
}

func (l *Latency) record(lat int64, b Breakdown) {
	l.Count++
	l.Sum += lat
	l.Hist.Record(lat)
	if lat > l.MaxLat {
		l.MaxLat = lat
	}
	l.Bank += b.Bank
	l.Network += b.Network
	l.Memory += b.Memory
}

// Clone returns an independent deep copy (the hit-way histogram is the
// only reference field). Snapshotting a run's Latency through Clone lets
// a parallel sweep hand stats across goroutines without aliasing.
func (l *Latency) Clone() *Latency {
	c := *l
	c.hitWays = append([]int64(nil), l.hitWays...)
	return &c
}

// Merge folds o into l: counters and sums add, MaxLat takes the maximum,
// and the hit-way histograms add element-wise (l grows to o's
// associativity if needed). Merge is commutative and associative up to
// hitWays length, so multi-run aggregates combined in submission order
// equal any other combination order — the property the parallel
// experiment engine relies on (and the merge-order invariance test pins).
func (l *Latency) Merge(o *Latency) {
	l.Count += o.Count
	l.Sum += o.Sum
	if o.MaxLat > l.MaxLat {
		l.MaxLat = o.MaxLat
	}
	l.Hits += o.Hits
	l.HitSum += o.HitSum
	l.Misses += o.Misses
	l.MissSum += o.MissSum
	l.Bank += o.Bank
	l.Network += o.Network
	l.Memory += o.Memory
	l.OccCount += o.OccCount
	l.OccSum += o.OccSum
	l.Hist.Merge(&o.Hist)
	if len(o.hitWays) > len(l.hitWays) {
		grown := make([]int64, len(o.hitWays))
		copy(grown, l.hitWays)
		l.hitWays = grown
	}
	for i, v := range o.hitWays {
		l.hitWays[i] += v
	}
}

// AddOccupancy logs one operation's column-occupancy span.
func (l *Latency) AddOccupancy(span int64) {
	l.OccCount++
	l.OccSum += span
}

// AvgOccupancy returns the mean column-occupancy span.
func (l *Latency) AvgOccupancy() float64 { return ratio(l.OccSum, l.OccCount) }

// Avg returns the mean access latency.
func (l *Latency) Avg() float64 { return ratio(l.Sum, l.Count) }

// AvgHit returns the mean hit latency.
func (l *Latency) AvgHit() float64 { return ratio(l.HitSum, l.Hits) }

// AvgMiss returns the mean miss latency.
func (l *Latency) AvgMiss() float64 { return ratio(l.MissSum, l.Misses) }

// HitRate returns hits / accesses.
func (l *Latency) HitRate() float64 { return ratio(l.Hits, l.Count) }

// Percentile returns the q-quantile of the access-latency distribution
// (see Histogram.Percentile for the error bound).
func (l *Latency) Percentile(q float64) int64 { return l.Hist.Percentile(q) }

// Shares returns the bank/network/memory fractions of total latency —
// the Figure 7 split. They sum to 1 for a non-empty run.
func (l *Latency) Shares() (bank, network, memory float64) {
	total := l.Bank + l.Network + l.Memory
	if total == 0 {
		return 0, 0, 0
	}
	return float64(l.Bank) / float64(total),
		float64(l.Network) / float64(total),
		float64(l.Memory) / float64(total)
}

// HitWayShare returns the fraction of hits landing on bank-set way w
// (way 0 = the MRU bank).
func (l *Latency) HitWayShare(w int) float64 {
	if w < 0 || w >= len(l.hitWays) {
		return 0
	}
	return ratio(l.hitWays[w], l.Hits)
}

// HitWays returns a copy of the hit-way histogram.
func (l *Latency) HitWays() []int64 {
	out := make([]int64, len(l.hitWays))
	copy(out, l.hitWays)
	return out
}

func (l *Latency) String() string {
	return fmt.Sprintf("n=%d avg=%.1f hit=%.1f(%.1f%%) miss=%.1f",
		l.Count, l.Avg(), l.AvgHit(), 100*l.HitRate(), l.AvgMiss())
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
