package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent names the span (of the same operation) that caused this one and
// is empty for a root. Names are unique within an operation, so (Op, Name)
// identifies a span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced pass's spans and the counts taken at the same
// boundaries in memory; writeSpans flushes the spans when the pass ends.
type recorder struct {
	t0     time.Time
	spans  []span
	counts map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string][]float64{}}
}

// do runs f as a span.
func (r *recorder) do(op int, parent, name string, f func()) time.Duration {
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	f()
	r.spans[i].End = int64(time.Since(r.t0))
	return r.spans[i].dur()
}

// count records one observation of a named quantity.
func (r *recorder) count(name string, v float64) {
	r.counts[name] = append(r.counts[name], v)
}

// durs returns every recorded duration of the named span, in ms.
func (r *recorder) durs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

type spanKey struct {
	op   int
	name string
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are counted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[spanKey]time.Duration {
	children := map[spanKey][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := spanKey{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[spanKey]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[spanKey{s.Op, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[spanKey{s.Op, s.Name}] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// samples. It refuses when fewer than minBeyond samples lie above the
// chosen rank: a tail read off one or two samples is noise, not a metric.
func percentile(samples []float64, p float64, minBeyond int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples", p)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1
	rank = min(max(rank, 0), n-1)
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.2f of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank], nil
}

// median is the 50th percentile with no tail requirement; 0 for no samples
// (a layer that is not on the workload's path).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	v, _ := percentile(samples, 0.5, 0)
	return v
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}
