package stats

import "math/bits"

// Histogram is a log-bucketed latency histogram: values below 32 cycles
// get exact buckets, larger values fall into 16 linear sub-buckets per
// power of two, bounding the relative quantile error at ~6%. The bucket
// array is a fixed-size value (no pointers), so recording is a single
// array increment — allocation-free and cheap enough to run on every
// access of the default path — and Clone-by-copy works via plain struct
// assignment.
//
// Merge adds bucket counts element-wise, making it commutative and
// associative: percentiles of a merged histogram are exactly the
// percentiles of the combined sample, which is what lets the parallel
// experiment engine report p50/p99 over a whole sweep (pinned by
// TestHistogramMergeTable).

const (
	histSubBits = 4                // 16 linear sub-buckets per octave
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histExact   = 2 * histSub      // values < 32 are bucketed exactly
	histMaxLen  = 42               // max value bit-length before clamping
	histBuckets = histExact + (histMaxLen-histSubBits-1)*histSub
)

// Histogram accumulates non-negative int64 samples.
type Histogram struct {
	N      int64
	counts [histBuckets]int64
}

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histExact {
		return int(v)
	}
	r := bits.Len64(v)
	if r > histMaxLen {
		return histBuckets - 1
	}
	sub := int((v >> uint(r-1-histSubBits)) & (histSub - 1))
	return histExact + (r-histSubBits-2)*histSub + sub
}

// histUpper returns the largest value mapping to bucket b — the value
// Percentile reports, so quantiles are conservative (never understate).
func histUpper(b int) int64 {
	if b < histExact {
		return int64(b)
	}
	region := (b - histExact) / histSub
	sub := (b - histExact) % histSub
	r := region + histSubBits + 2
	return int64(uint64(histSub+sub+1)<<uint(r-1-histSubBits) - 1)
}

// Record adds one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(uint64(v))]++
	h.N++
}

// Merge adds o's buckets into h element-wise.
func (h *Histogram) Merge(o *Histogram) {
	h.N += o.N
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Percentile returns an upper bound on the q-quantile (0 < q <= 1) of
// the recorded samples, exact below 32 and within ~6% above. An empty
// histogram reports 0.
func (h *Histogram) Percentile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	target := int64(q*float64(h.N) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > h.N {
		target = h.N
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			return histUpper(b)
		}
	}
	return histUpper(histBuckets - 1)
}
