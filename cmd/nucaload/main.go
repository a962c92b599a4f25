// Command nucaload is the load driver for the nucad service: it fires a
// deterministic request mix at a running daemon from several synthetic
// clients, honors 429/Retry-After backpressure, and reports throughput,
// latency percentiles, and the cache-source split it observed.
//
//	nucad -addr 127.0.0.1:8080 &
//	nucaload -addr http://127.0.0.1:8080 -n 200 -c 8 -unique 20
//
// The mix cycles seeds 0..unique-1, so with n > unique every
// configuration after the first lap is a cache hit — the "millions of
// users asking the same questions" traffic shape the service is built
// for. Every third configuration additionally requests the bufferless
// deflection router, so the mix exercises more than one router engine
// (and more than one content-addressed key per seed lap) on every run.
// -require-hits makes a hitless run a failure (cmd/cli_test.go's gate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "nucad base URL")
		n           = flag.Int("n", 100, "total requests")
		c           = flag.Int("c", 4, "concurrent requesters")
		clients     = flag.Int("clients", 4, "distinct client identities (X-Client header)")
		unique      = flag.Int("unique", 10, "distinct configurations in the mix (seeds 0..unique-1)")
		design      = flag.String("design", "F", "design id for the mix")
		bench       = flag.String("bench", "gcc", "benchmark profile for the mix")
		acc         = flag.Int("accesses", 400, "accesses per run")
		requireHits = flag.Bool("require-hits", false, "exit non-zero unless at least one cache hit was observed")
	)
	flag.Parse()

	l := &loader{
		addr: strings.TrimRight(*addr, "/"),
		http: &http.Client{Timeout: 5 * time.Minute},
	}

	// The request list is deterministic: request i uses seed i%unique
	// under client identity i%clients, and every third seed asks for the
	// bufferless router. Keying the router off the seed (not off i) keeps
	// the distinct-configuration count equal to -unique, so the cache-hit
	// math in the doc comment still holds.
	type job struct{ seed, client int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				routerField := ""
				if j.seed%3 == 2 {
					routerField = `,"router":"bufferless"`
				}
				body := fmt.Sprintf(`{"design":%q,"benchmark":%q,"accesses":%d,"seed":%d%s}`,
					*design, *bench, *acc, j.seed, routerField)
				l.do(body, "client-"+strconv.Itoa(j.client))
			}
		}()
	}
	for i := 0; i < *n; i++ {
		jobs <- job{seed: i % *unique, client: i % *clients}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(t0)

	l.report(os.Stdout, wall)
	if l.errors > 0 {
		fmt.Fprintf(os.Stderr, "nucaload: %d requests failed\n", l.errors)
		os.Exit(1)
	}
	if *requireHits && l.sources["hit"] == 0 {
		fmt.Fprintln(os.Stderr, "nucaload: no cache hits observed (-require-hits)")
		os.Exit(1)
	}
}

type loader struct {
	addr string
	http *http.Client

	mu      sync.Mutex
	lats    []time.Duration
	sources map[string]int // X-Nucad-Cache value -> count
	retried int            // 429s honored via Retry-After
	errors  int
}

// do issues one request, retrying up to 3 times on 429 after the
// server's Retry-After delay (capped at 2s so smoke runs stay brief).
func (l *loader) do(body, client string) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", l.addr+"/v1/run", strings.NewReader(body))
		if err != nil {
			l.fail(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client", client)
		t0 := time.Now()
		resp, err := l.http.Do(req)
		if err != nil {
			l.fail(err)
			return
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			l.fail(err)
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 3 {
			delay := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				delay = time.Duration(s) * time.Second
			}
			if delay > 2*time.Second {
				delay = 2 * time.Second
			}
			l.mu.Lock()
			l.retried++
			l.mu.Unlock()
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			l.fail(fmt.Errorf("status %d: %s", resp.StatusCode, payload))
			return
		}
		l.mu.Lock()
		l.lats = append(l.lats, time.Since(t0))
		if l.sources == nil {
			l.sources = map[string]int{}
		}
		l.sources[resp.Header.Get("X-Nucad-Cache")]++
		l.mu.Unlock()
		return
	}
}

func (l *loader) fail(err error) {
	l.mu.Lock()
	l.errors++
	l.mu.Unlock()
	fmt.Fprintln(os.Stderr, "nucaload:", err)
}

func (l *loader) report(w io.Writer, wall time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.lats, func(i, j int) bool { return l.lats[i] < l.lats[j] })
	pct := func(q float64) time.Duration {
		if len(l.lats) == 0 {
			return 0
		}
		i := int(float64(len(l.lats)) * q)
		if i >= len(l.lats) {
			i = len(l.lats) - 1
		}
		return l.lats[i]
	}
	ok := len(l.lats)
	fmt.Fprintf(w, "nucaload: %d ok, %d failed, %d retried in %v (%.1f req/s)\n",
		ok, l.errors, l.retried, wall.Round(time.Millisecond), float64(ok)/wall.Seconds())
	fmt.Fprintf(w, "  latency p50 %v  p90 %v  p99 %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	fmt.Fprintf(w, "  cache: hit %d, miss %d, coalesced %d\n",
		l.sources["hit"], l.sources["miss"], l.sources["coalesced"])

	// The server-side view, for the smoke log.
	if resp, err := l.http.Get(l.addr + "/v1/stats"); err == nil {
		defer resp.Body.Close()
		var st struct {
			Served uint64 `json:"served"`
			Cache  struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
				Size   int    `json:"size"`
			} `json:"cache"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			fmt.Fprintf(w, "  server: served %d, cache %d hits / %d misses, %d entries\n",
				st.Served, st.Cache.Hits, st.Cache.Misses, st.Cache.Size)
		}
	}
}
