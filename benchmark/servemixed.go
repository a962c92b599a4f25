package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nucanet/internal/core"
	"nucanet/internal/serve"
)

const (
	serveWorkers    = 2
	serveWarmupReqs = 5
	// clientOpStride separates the clients' op ids in the span file.
	clientOpStride = 1 << 32
)

// target is a running service with its working set primed.
type target struct {
	srv *serve.Server
	ts  *httptest.Server
	// bodies maps a request seed to the hash of the first response body
	// seen for it; every later response for that seed must hash the same,
	// which is the "a hit is byte-identical to the miss" check.
	mu     sync.Mutex
	bodies map[uint64][32]byte
}

// response is what one POST /v1/run returned.
type response struct {
	status int
	source string // X-Nucad-Cache
	body   []byte
	dur    time.Duration
}

// startTarget is serve_mixed's set-up: start the service behind a loopback
// HTTP server, prime the working set (32 cold runs) and send a few warm
// requests so connections and lazy state exist before anything is measured.
func startTarget(seed uint64) (*target, error) {
	srv := serve.New(serve.Config{Workers: serveWorkers})
	t := &target{srv: srv, ts: httptest.NewServer(srv.Handler()), bodies: map[uint64][32]byte{}}
	for j := 0; j < serveWorkingSet+serveWarmupReqs; j++ {
		reqSeed := workingSetSeed(seed, j%serveWorkingSet)
		want := "miss"
		if j >= serveWorkingSet {
			want = "hit"
		}
		r, err := t.post(0, reqSeed)
		if err == nil {
			_, err = t.check(reqSeed, want, r)
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("priming key %d: %w", j, err)
		}
	}
	return t, nil
}

func (t *target) close() {
	t.ts.Close()
	t.srv.Close()
}

func (t *target) post(client int, reqSeed uint64) (response, error) {
	body := `{"design":"` + serveDesign + `","accesses":` + strconv.Itoa(serveAccesses) +
		`,"seed":` + strconv.FormatUint(reqSeed, 10) + `}`
	req, err := http.NewRequest(http.MethodPost, t.ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", "client-"+strconv.Itoa(client))
	t0 := time.Now()
	resp, err := t.ts.Client().Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{resp.StatusCode, resp.Header.Get("X-Nucad-Cache"), b, time.Since(t0)}, nil
}

// check verifies one response: 200, served from where the request stream
// says it must be, and byte-identical to every other response for its key.
// It returns the body's SHA-256.
func (t *target) check(reqSeed uint64, wantSource string, r response) (sum [32]byte, err error) {
	if r.status != http.StatusOK {
		return sum, fmt.Errorf("status %d: %.120s", r.status, r.body)
	}
	if r.source != wantSource {
		return sum, fmt.Errorf("seed %d served as %q, want %q", reqSeed, r.source, wantSource)
	}
	sum = sha256.Sum256(r.body)
	t.mu.Lock()
	first, seen := t.bodies[reqSeed]
	if !seen {
		t.bodies[reqSeed] = sum
	}
	t.mu.Unlock()
	if seen && first != sum {
		return sum, fmt.Errorf("seed %d: body differs from the first response for the same key", reqSeed)
	}
	return sum, nil
}

// simFields are the simulated quantities a response body carries.
type simFields struct {
	IPC        float64 `json:"ipc"`
	AvgLatency float64 `json:"avg_latency"`
	HitRate    float64 `json:"hit_rate"`
}

// serveRecord checks one response and turns it into an opRecord. The
// fingerprint is the leading 8 bytes of the body's SHA-256.
func (t *target) serveRecord(reqSeed uint64, cold bool, r response, err error, p *pass, mu *sync.Mutex, id int) opRecord {
	rec := opRecord{key: reqSeed, ms: ms(r.dur), accesses: serveAccesses, cold: cold}
	want := "hit"
	if cold {
		want = "miss"
	}
	var f simFields
	var sum [32]byte
	if err == nil {
		sum, err = t.check(reqSeed, want, r)
	}
	if err == nil {
		err = json.Unmarshal(r.body, &f)
	}
	if err != nil {
		rec.failed, rec.accesses = true, 0
		mu.Lock()
		p.fail("request %d: %v", id, err)
		mu.Unlock()
		return rec
	}
	rec.fp = binary.LittleEndian.Uint64(sum[:8])
	rec.ipc, rec.latency, rec.hitRate = f.IPC, f.AvgLatency, f.HitRate
	return rec
}

// runServe drives t with serveClients closed-loop clients, each sending its
// own request stream 0,1,2,... until both budget has passed and minReqs are
// sent, or maxReqs are sent. When rec is non-nil every request is a span.
func runServe(t *target, seed uint64, budget time.Duration, minReqs, maxReqs int, rec *recorder) *pass {
	p := &pass{}
	var mu sync.Mutex // guards p.notes and rec
	perClient := make([][]opRecord, serveClients)
	runtime.GC()
	mm := markMem()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < maxReqs; i++ {
				if i >= minReqs && time.Since(start) >= budget {
					return
				}
				reqSeed, cold := serveOp(seed, c, i)
				id := c*clientOpStride + i
				r, err := t.post(c, reqSeed)
				if rec != nil && err == nil {
					name := "serve.request.hit"
					if cold {
						name = "serve.request.miss"
					}
					end := int64(time.Since(rec.t0))
					mu.Lock()
					rec.spans = append(rec.spans, span{Name: name, Op: id, Start: end - int64(r.dur), End: end})
					rec.count("serve.response_bytes", float64(len(r.body)))
					mu.Unlock()
				}
				perClient[c] = append(perClient[c], t.serveRecord(reqSeed, cold, r, err, p, &mu, id))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	mm.close(p)
	for _, ops := range perClient {
		p.ops = append(p.ops, ops...)
	}
	p.client0 = len(perClient[0])
	return p
}

// serveStats reads the service's own counters.
func (t *target) serveStats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := t.ts.Client().Get(t.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return st, nil
}

// firstCold returns the indices in p.ops of the first n cold requests of
// client 0 that did not fail.
func firstCold(seed uint64, p *pass, n int) []int {
	var out []int
	for i := 0; len(out) < n && i < p.client0; i++ {
		if _, cold := serveOp(seed, 0, i); cold && !p.ops[i].failed {
			out = append(out, i)
		}
	}
	return out
}

// verifyServe re-runs the first n cold keys of client 0 directly through
// core.Run and checks the simulated fields the service returned for them.
func verifyServe(seed uint64, n int, p *pass) {
	for _, i := range firstCold(seed, p, n) {
		res, err := core.Run(serveOptions(p.ops[i].key))
		o := p.ops[i]
		if err != nil || res.IPC != o.ipc || res.AvgLatency != o.latency || res.HitRate != o.hitRate {
			p.ops[i].failed = true
			p.fail("request %d: response disagrees with a direct core.Run of the same options (err=%v)", i, err)
		}
	}
}

// tracedServeSiblings runs, for the first n cold requests of client 0, the
// identical options directly and decomposed, as sibling spans under the
// request's op id, with the lower layers' probes on the first probeOps.
func tracedServeSiblings(seed uint64, p *pass, n, probeOps int, rec *recorder) {
	for done, i := range firstCold(seed, p, n) {
		res, art, err := tracedOp(rec, i, serveOptions(p.ops[i].key))
		if err == nil && (res.IPC != p.ops[i].ipc || res.HitRate != p.ops[i].hitRate) {
			err = fmt.Errorf("decomposed run disagrees with the service's response")
		}
		if err == nil && done < probeOps {
			err = layerProbes(rec, i, art)
		}
		if err != nil {
			p.ops[i].failed = true
			p.fail("request %d: sibling run: %v", i, err)
		}
	}
}
