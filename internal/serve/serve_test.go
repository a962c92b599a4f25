package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/core"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/trace"
)

func getJSON(t *testing.T, ts *httptest.Server, path string, dst any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp
}

// TestCatalogueEndpoints pins that the GET catalogues are derived from
// the live registries, not hand-maintained lists.
func TestCatalogueEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var ds struct {
		Designs []DesignInfo `json:"designs"`
	}
	getJSON(t, ts, "/v1/designs", &ds)
	byID := map[string]DesignInfo{}
	for _, d := range ds.Designs {
		byID[d.ID] = d
	}
	for _, id := range []string{"A", "B", "C", "D", "E", "F", "R", "G"} {
		if _, ok := byID[id]; !ok {
			t.Errorf("/v1/designs missing catalogue design %s", id)
		}
	}
	if a := byID["A"]; a.Topology != "mesh" || a.Routing != "xy" || a.CapacityKB != 16384 {
		t.Errorf("design A row wrong: %+v", a)
	}
	if f := byID["F"]; f.Routing != "spike" || f.Ways != 16 {
		t.Errorf("design F row wrong: %+v", f)
	}

	var ps struct {
		Policies []string `json:"policies"`
	}
	getJSON(t, ts, "/v1/policies", &ps)
	if !reflect.DeepEqual(ps.Policies, cache.PolicyNames()) {
		t.Errorf("/v1/policies = %v, want registry %v", ps.Policies, cache.PolicyNames())
	}

	var rs struct {
		Routings []string `json:"routings"`
	}
	getJSON(t, ts, "/v1/routings", &rs)
	if !reflect.DeepEqual(rs.Routings, routing.AlgorithmNames()) {
		t.Errorf("/v1/routings = %v, want registry %v", rs.Routings, routing.AlgorithmNames())
	}

	var rts struct {
		Routers []RouterInfo `json:"routers"`
	}
	getJSON(t, ts, "/v1/routers", &rts)
	var names []string
	for _, r := range rts.Routers {
		names = append(names, r.Name)
		if r.Default != (r.Name == router.DefaultEngine) {
			t.Errorf("/v1/routers: %s default flag = %v", r.Name, r.Default)
		}
		if r.Description == "" {
			t.Errorf("/v1/routers: %s has empty description", r.Name)
		}
	}
	if !reflect.DeepEqual(names, router.Names()) {
		t.Errorf("/v1/routers = %v, want registry %v", names, router.Names())
	}

	var bs struct {
		Benchmarks []string `json:"benchmarks"`
	}
	getJSON(t, ts, "/v1/benchmarks", &bs)
	if !reflect.DeepEqual(bs.Benchmarks, trace.Names()) {
		t.Errorf("/v1/benchmarks = %v, want registry %v", bs.Benchmarks, trace.Names())
	}

	var es struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	getJSON(t, ts, "/v1/experiments", &es)
	var expNames []string
	inAll := map[string]bool{}
	for _, e := range es.Experiments {
		expNames = append(expNames, e.Name)
		inAll[e.Name] = e.InAll
		if e.About == "" {
			t.Errorf("/v1/experiments: %s has empty about", e.Name)
		}
	}
	if !reflect.DeepEqual(expNames, core.ExperimentNames()) {
		t.Errorf("/v1/experiments = %v, want registry %v", expNames, core.ExperimentNames())
	}
	if all, ok := inAll["telemetry"]; !ok || all {
		t.Errorf("/v1/experiments: telemetry in_all = %v, want listed false", inAll["telemetry"])
	}
	if all, ok := inAll["f9"]; !ok || !all {
		t.Errorf("/v1/experiments: f9 in_all = %v, want listed true", inAll["f9"])
	}
}

// TestStatsReflectsTraffic pins the /v1/stats counters and the merged
// aggregate across a miss and a hit of the same configuration.
func TestStatsReflectsTraffic(t *testing.T) {
	g := newGatedRun()
	close(g.release) // never block; gatedRun still records and resolves
	_, ts := newTestServer(t, Config{Workers: 2, Run: g.run})

	body := runBody(1)
	if resp, b := postAs(t, ts, "c", body); resp.StatusCode != 200 {
		t.Fatalf("miss: %d %s", resp.StatusCode, b)
	}
	if resp, _ := postAs(t, ts, "c", body); resp.Header.Get("X-Nucad-Cache") != "hit" {
		t.Fatal("second request was not a cache hit")
	}

	var st StatsResponse
	getJSON(t, ts, "/v1/stats", &st)
	if st.Served != 2 || st.Cache.Hits != 1 || st.Cache.Size != 1 {
		t.Fatalf("served/hits/size = %d/%d/%d, want 2/1/1", st.Served, st.Cache.Hits, st.Cache.Size)
	}
	// Both responses (the run and its cache hit) merge into the served
	// aggregate: 2 runs x 100 accesses.
	if st.Aggregate.Runs != 2 || st.Aggregate.Accesses != 200 {
		t.Fatalf("aggregate runs/accesses = %d/%d, want 2/200", st.Aggregate.Runs, st.Aggregate.Accesses)
	}
	if st.Workers != 2 || st.QueueDepth != 16 {
		t.Fatalf("workers/depth = %d/%d, want 2/16", st.Workers, st.QueueDepth)
	}

	var hz struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts, "/v1/healthz", &hz); resp.StatusCode != 200 || hz.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, hz.Status)
	}
}

// TestServePanickingRunFailsOneRequest: a run that panics fails its
// request with the usual 500, the failure is not cached (retrying the
// key runs it again), and the server's only worker survives to serve the
// next request.
func TestServePanickingRunFailsOneRequest(t *testing.T) {
	var mu sync.Mutex
	calls := map[uint64]int{}
	run := func(o core.Options) (core.Result, error) {
		mu.Lock()
		calls[o.Seed]++
		mu.Unlock()
		if o.Seed == 13 {
			panic("injected fault")
		}
		return fakeResult(o)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Run: run})

	for try := 1; try <= 2; try++ {
		resp, b := postAs(t, ts, "c", runBody(13))
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "simulation failed") {
			t.Fatalf("try %d: panicking run answered %d %s, want 500 simulation failed", try, resp.StatusCode, b)
		}
	}
	if resp, b := postAs(t, ts, "c", runBody(14)); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panics answered %d %s, want 200", resp.StatusCode, b)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls[13] != 2 || calls[14] != 1 {
		t.Fatalf("runs per seed %v, want the panicking key run on each try and the next key once", calls)
	}
	if s.failed.Load() != 2 {
		t.Fatalf("failed counter %d, want 2", s.failed.Load())
	}
}
