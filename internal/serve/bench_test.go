package serve

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The BenchmarkServe* family measures the serving layer end to end over
// real HTTP (loopback TCP) with real simulations, reporting three
// custom units next to ns/op:
//
//   - req/s      — request throughput;
//   - p99-ns     — 99th-percentile request latency;
//   - hitrate    — result-cache hit rate over the measured window.
//
// The acceptance bar for the service is the Cold/Warm ns/op ratio: warm
// (content-addressed cache hit) must beat cold (full simulation) by
// >= 50x.

// benchPost issues one request and returns its latency.
func benchPost(b *testing.B, ts *httptest.Server, body string) time.Duration {
	t0 := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
	return time.Since(t0)
}

func reportLatencies(b *testing.B, lats []time.Duration, elapsed time.Duration) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	if elapsed > 0 {
		b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "req/s")
	}
}

func reportHitRate(b *testing.B, ts *httptest.Server) {
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	total := st.Cache.Hits + st.Cache.Misses
	if total > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(total), "hitrate")
	}
}

// BenchmarkServeCold measures the miss path: every request is a
// distinct configuration (the seed varies), so each one runs a full
// design-F simulation through the scheduler.
func BenchmarkServeCold(b *testing.B) {
	_, ts := newTestServer(b, Config{Workers: 1})
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		lats = append(lats, benchPost(b, ts, runBodyN(i)))
	}
	b.StopTimer()
	reportLatencies(b, lats, time.Since(t0))
	reportHitRate(b, ts)
}

// BenchmarkServeWarm measures the hot path of a shared service: the
// same configuration requested repeatedly, served from the
// content-addressed cache after one priming run.
func BenchmarkServeWarm(b *testing.B) {
	_, ts := newTestServer(b, Config{Workers: 1})
	benchPost(b, ts, runBodyN(0)) // prime
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		lats = append(lats, benchPost(b, ts, runBodyN(0)))
	}
	b.StopTimer()
	reportLatencies(b, lats, time.Since(t0))
	reportHitRate(b, ts)
}

// BenchmarkServeMixed is the realistic blend: 90% of requests revisit a
// small working set of 8 configurations, 10% are new — the hit-rate
// column shows what the cache buys at that blend.
func BenchmarkServeMixed(b *testing.B) {
	_, ts := newTestServer(b, Config{Workers: 2})
	for i := 0; i < 8; i++ { // prime the working set
		benchPost(b, ts, runBodyN(i))
	}
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		n := i % 8
		if i%10 == 9 {
			n = 1000 + i // a fresh configuration
		}
		lats = append(lats, benchPost(b, ts, runBodyN(n)))
	}
	b.StopTimer()
	reportLatencies(b, lats, time.Since(t0))
	reportHitRate(b, ts)
}

// runBodyN is the benchmark request family: design F (the fastest full
// configuration), 400 accesses, seed n.
func runBodyN(n int) string {
	return `{"design":"F","accesses":400,"seed":` + strconv.Itoa(n) + `}`
}
