package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// detReq is a small real run (design F is the fastest full
// configuration) used by the determinism and benchmark tests.
const detReq = `{"design":"F","policy":"fastlru","mode":"multicast","benchmark":"gcc","accesses":400,"seed":7}`

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postRun(t testing.TB, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// TestServeDeterministicBodies pins the serving layer's core promise:
// the same request served cold (fresh server), warm (cache hit), and
// concurrently from 8 goroutines returns byte-identical JSON bodies.
// Runs under -race via the race make target.
func TestServeDeterministicBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	resp, cold := postRun(t, ts, detReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Nucad-Cache"); got != "miss" {
		t.Fatalf("cold: X-Nucad-Cache = %q, want miss", got)
	}

	resp, warm := postRun(t, ts, detReq)
	if got := resp.Header.Get("X-Nucad-Cache"); got != "hit" {
		t.Fatalf("warm: X-Nucad-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm bodies differ:\ncold: %s\nwarm: %s", cold, warm)
	}

	// A second, independent server must produce the same bytes (the
	// content address is a pure function of the configuration), and 8
	// concurrent requests against it must all agree.
	_, ts2 := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	bodies := make([][]byte, 8)
	sources := make([]string, 8)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postRun(t, ts2, detReq)
			bodies[i] = b
			sources[i] = resp.Header.Get("X-Nucad-Cache")
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(cold, b) {
			t.Fatalf("concurrent body %d (source %s) differs from cold:\ncold: %s\ngot:  %s",
				i, sources[i], cold, b)
		}
	}

	// Sanity on the payload itself.
	var rr RunResponse
	if err := json.Unmarshal(cold, &rr); err != nil {
		t.Fatalf("body is not a RunResponse: %v", err)
	}
	if rr.ConfigHash == "" || rr.Cycles <= 0 || rr.IPC <= 0 || rr.Design != "F" {
		t.Fatalf("implausible response: %+v", rr)
	}
}

// TestServeCoalescesConcurrentIdenticalRequests pins that concurrent
// identical cold requests share one execution: with a single worker and
// 8 simultaneous requests, the cache+coalescing layer serves all of
// them while executing at most one simulation.
func TestServeCoalescesConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postRun(t, ts, detReq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	if runs := s.runs.Load(); runs != 1 {
		t.Fatalf("executed %d simulations for 8 identical requests, want 1", runs)
	}
	if served := s.served.Load(); served != 8 {
		t.Fatalf("served = %d, want 8", served)
	}
}

// TestServeTelemetryResponse exercises the heatmap/series path end to
// end: artifacts arrive in the body and remain deterministic.
func TestServeTelemetryResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"design":"F","accesses":300,"telemetry":{"heatmap":true,"sample_every":50}}`
	resp, b1 := postRun(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b1)
	}
	var rr RunResponse
	if err := json.Unmarshal(b1, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Telemetry == nil {
		t.Fatal("telemetry requested but absent from response")
	}
	if len(rr.Telemetry.BankAccesses) == 0 || rr.Telemetry.Samples == 0 {
		t.Fatalf("telemetry payload empty: %+v", rr.Telemetry)
	}
	_, b2 := postRun(t, ts, req)
	if !bytes.Equal(b1, b2) {
		t.Fatal("telemetry-bearing bodies differ between cold and warm")
	}
}
