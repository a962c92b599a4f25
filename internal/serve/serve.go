// Package serve is the simulation-as-a-service layer: it turns the
// deterministic core.Run into a shared HTTP service (cmd/nucad) that can
// absorb heavy repeat traffic.
//
// Three properties carry the design:
//
//   - Content addressing. A run is fully keyed by core.CanonicalKey of
//     its resolved configuration, so completed results live in a bounded
//     LRU (cache.go) and repeat queries — the hot path of a shared
//     service — are O(1) lookups whose responses are byte-identical to a
//     fresh run.
//   - Fairness and backpressure. Cache misses are scheduled onto a
//     bounded worker pool (Config.Workers, default GOMAXPROCS) through
//     per-client round-robin queues with a per-client depth bound
//     (sched.go); a client exceeding its bound gets 429 + Retry-After
//     instead of queue time, and can never starve another client.
//   - Coalescing. Concurrent identical requests share one execution:
//     the first becomes the leader, the rest wait for its bytes.
//
// Graceful shutdown (Close) stops new work and drains every accepted
// run, so no in-flight client loses its response.
package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/trace"
)

// Config sizes a Server. Zero values select defaults.
type Config struct {
	// Workers is the simulation pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds each client's pending runs; <= 0 selects 16.
	QueueDepth int
	// CacheEntries bounds the result cache; <= 0 selects 1024.
	CacheEntries int
	// MaxAccesses caps the accesses one request simulates: Accesses x
	// max(Cores, 1) of the resolved options, so a defaulted field counts
	// too; <= 0 selects 200000.
	MaxAccesses int
	// Run executes one simulation; nil selects core.Run. Tests inject
	// gated fakes here to exercise fairness and shutdown deterministically.
	Run func(core.Options) (core.Result, error)
}

// Server owns the scheduler, the result cache, and the service
// counters. Build one with New, expose it with Handler, drain it with
// Close.
type Server struct {
	cfg   Config
	sched *Sched
	cache *Cache
	run   func(core.Options) (core.Result, error)
	start time.Time

	mu       sync.Mutex
	inflight map[string]*call // coalescing: canonical key -> leader's call
	agg      core.Aggregate   // over every *served* response (hits re-merge)

	served    atomic.Uint64 // 200 responses to /v1/run
	coalesced atomic.Uint64 // responses served by joining a leader's run
	failed    atomic.Uint64 // 5xx responses to /v1/run
	runNS     atomic.Int64  // cumulative simulation time, for Retry-After
	runs      atomic.Int64
}

// call is one in-flight execution; followers block on done and then
// read body/err.
type call struct {
	done chan struct{}
	body []byte
	res  core.Result
	err  error
}

// New builds a Server whose scheduler runs cfg.Workers simulations
// concurrently.
func New(cfg Config) *Server {
	if cfg.MaxAccesses <= 0 {
		cfg.MaxAccesses = 200000
	}
	run := cfg.Run
	if run == nil {
		run = core.Run
	}
	return &Server{
		cfg:      cfg,
		sched:    NewSched(cfg.Workers, cfg.QueueDepth),
		cache:    NewCache(cfg.CacheEntries),
		run:      run,
		start:    time.Now(),
		inflight: map[string]*call{},
	}
}

// Close drains the scheduler: accepted runs complete and respond, new
// submissions get 503.
func (s *Server) Close() { s.sched.Close() }

// Workers returns the simulation pool size.
func (s *Server) Workers() int { return s.sched.Workers() }

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/routings", s.handleRoutings)
	mux.HandleFunc("GET /v1/routers", s.handleRouters)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// clientID identifies the requester for fair queuing: the X-Client
// header when present (the load driver and tests set it), else the
// remote address without the ephemeral port.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host := r.RemoteAddr
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] == ':' {
			return host[:i]
		}
	}
	return host
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	opts, aerr := req.options()
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	key, err := core.CanonicalKey(opts)
	if err != nil {
		writeError(w, gateError(opts))
		return
	}
	// Accesses x cores > MaxAccesses, compared without the product, which
	// a huge accesses field would overflow.
	if cores := max(opts.Cores, 1); opts.Accesses > s.cfg.MaxAccesses/cores {
		writeError(w, badField("accesses", "accesses x cores must be at most %d, got %d x %d",
			s.cfg.MaxAccesses, opts.Accesses, cores))
		return
	}

	// Flight map and cache are checked under one lock acquisition. The
	// execute() ordering — cache.Put strictly before the flight closes,
	// which is strictly before the leader deletes the flight entry —
	// makes this airtight: if the flight is absent here, the cache
	// lookup below cannot miss a completed identical run, so an
	// identical burst executes exactly one simulation (pinned by
	// TestServeCoalescesConcurrentIdenticalRequests).
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		s.coalesced.Add(1)
		s.finish(w, "coalesced", c)
		return
	}
	if body, res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.respond(w, "hit", body, res)
		return
	}
	c := &call{done: make(chan struct{})}
	if err := s.sched.Submit(clientID(r), func() { s.execute(key, opts, c) }); err != nil {
		s.mu.Unlock()
		s.reject(w, err)
		return
	}
	s.inflight[key] = c
	s.mu.Unlock()

	<-c.done
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	s.finish(w, "miss", c)
}

// execute runs one simulation on a scheduler worker, publishes the
// result to the cache (before releasing waiters, so a late requester
// can never miss both the flight and the cache), and releases the
// leader and any coalesced followers. A run that panics fails the call
// like a run error: the panic and its stack are logged, the worker
// lives on, and nothing is cached, so a retry runs the key again.
func (s *Server) execute(key string, opts core.Options, c *call) {
	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: run panicked: %v\n%s", p, debug.Stack())
			c.err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	t0 := time.Now()
	res, err := s.run(opts)
	if err != nil {
		c.err = err
		return
	}
	s.runNS.Add(int64(time.Since(t0)))
	s.runs.Add(1)
	body, err := buildResponse(key, res)
	if err != nil {
		c.err = err
		return
	}
	c.body, c.res = body, res
	s.cache.Put(key, body, res)
}

// finish responds for a completed call.
func (s *Server) finish(w http.ResponseWriter, source string, c *call) {
	if c.err != nil {
		// Options were validated before scheduling, so a failure here is
		// a service-side defect: log the detail, return a clean 500.
		log.Printf("serve: run failed: %v", c.err)
		s.failed.Add(1)
		writeError(w, &apiError{status: http.StatusInternalServerError, Message: "simulation failed"})
		return
	}
	s.respond(w, source, c.body, c.res)
}

// respond serves a completed run body and folds its statistics into the
// running aggregate. The cache source travels in a header so hit and
// miss bodies stay byte-identical.
func (s *Server) respond(w http.ResponseWriter, source string, body []byte, res core.Result) {
	s.mu.Lock()
	s.agg.Add(res)
	s.mu.Unlock()
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Nucad-Cache", source)
	w.Write(body)
}

// reject maps scheduler refusals: a full client queue becomes 429 with
// a Retry-After estimated from the observed mean run time and the
// current backlog; a draining scheduler becomes 503.
func (s *Server) reject(w http.ResponseWriter, err error) {
	if err == ErrClosed {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, Message: "server is shutting down"})
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, &apiError{
		status:  http.StatusTooManyRequests,
		Message: fmt.Sprintf("client queue full (depth %d); retry after the indicated delay", s.sched.Depth()),
	})
}

// retryAfterSeconds estimates when a queue slot frees: the backlog
// ahead, spread over the workers, at the observed mean run time.
func (s *Server) retryAfterSeconds() int {
	mean := time.Second
	if n := s.runs.Load(); n > 0 {
		mean = time.Duration(s.runNS.Load() / n)
	}
	pending, inflight, _ := s.sched.Load()
	laps := (pending+inflight)/s.sched.Workers() + 1
	secs := int(math.Ceil((time.Duration(laps) * mean).Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// DesignInfo is one /v1/designs row.
type DesignInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
	Topology    string `json:"topology"`
	Routing     string `json:"routing"`
	Columns     int    `json:"columns"`
	Ways        int    `json:"ways"`
	CapacityKB  int    `json:"capacity_kb"`
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	var out []DesignInfo
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		info := DesignInfo{
			ID: d.ID, Description: d.Description, Topology: d.Topology,
			Columns: d.Columns(), Ways: d.Ways(), CapacityKB: d.CapacityKB(),
		}
		if topo, err := d.Build(); err == nil {
			info.Routing = topo.Routing
		}
		out = append(out, info)
	}
	writeJSON(w, struct {
		Designs []DesignInfo `json:"designs"`
	}{out})
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Policies []string `json:"policies"`
	}{cache.PolicyNames()})
}

func (s *Server) handleRoutings(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Routings []string `json:"routings"`
	}{routing.AlgorithmNames()})
}

// RouterInfo is one /v1/routers row.
type RouterInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Deflecting  bool   `json:"deflecting"`
	Default     bool   `json:"default"`
}

func (s *Server) handleRouters(w http.ResponseWriter, r *http.Request) {
	var out []RouterInfo
	for _, name := range router.Names() {
		b, err := router.ByName(name)
		if err != nil {
			continue
		}
		out = append(out, RouterInfo{
			Name: name, Description: b.Description,
			Deflecting: b.Deflecting, Default: name == router.DefaultEngine,
		})
	}
	writeJSON(w, struct {
		Routers []RouterInfo `json:"routers"`
	}{out})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Benchmarks []string `json:"benchmarks"`
	}{trace.Names()})
}

// ExperimentInfo is one /v1/experiments row, straight from core's
// experiment catalogue, so nucad lists what every binary's
// -list=experiments prints.
type ExperimentInfo struct {
	Name  string `json:"name"`
	About string `json:"about"`
	// InAll marks experiments paperbench's "-exp all" includes.
	InAll bool `json:"in_all"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, name := range core.ExperimentNames() {
		e, err := core.ExperimentByName(name)
		if err != nil {
			continue
		}
		out = append(out, ExperimentInfo{Name: e.Name, About: e.About, InAll: e.InAll})
	}
	writeJSON(w, struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}{out})
}

// handleHealthz reports ok while serving and 503/"draining" once Close
// has started, so load balancers stop routing to a stopping instance.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	w.Header().Set("Content-Type", "application/json")
	if s.sched.Closed() {
		status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Status string `json:"status"`
	}{status})
}

// StatsResponse is the /v1/stats body: service counters, cache
// counters, queue state, and the aggregate over every served response
// (cache hits merge the cached run's stats again, so the aggregate
// reflects traffic served, not just simulations executed).
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	Pending       int     `json:"pending"`
	Inflight      int     `json:"inflight"`
	Rejected      uint64  `json:"rejected"`
	Served        uint64  `json:"served"`
	Coalesced     uint64  `json:"coalesced"`
	Failed        uint64  `json:"failed"`

	Cache CacheStats `json:"cache"`

	Aggregate AggregateStats `json:"aggregate"`
}

// AggregateStats is the merged-stats rollup of served traffic.
type AggregateStats struct {
	Runs          int            `json:"runs"`
	Accesses      int64          `json:"accesses"`
	Latency       latencySummary `json:"latency"`
	FlitsInjected uint64         `json:"flits_injected"`
	MemReads      uint64         `json:"mem_reads"`
	MemWriteBacks uint64         `json:"mem_writebacks"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pending, inflight, rejected := s.sched.Load()
	s.mu.Lock()
	agg := AggregateStats{
		Runs:          s.agg.Runs,
		Accesses:      s.agg.Accesses,
		Latency:       summarize(&s.agg.Latency),
		FlitsInjected: s.agg.Network.FlitsInjected,
		MemReads:      s.agg.MemReads,
		MemWriteBacks: s.agg.MemWB,
	}
	s.mu.Unlock()
	writeJSON(w, StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.sched.Workers(),
		QueueDepth:    s.sched.Depth(),
		Pending:       pending,
		Inflight:      inflight,
		Rejected:      rejected,
		Served:        s.served.Load(),
		Coalesced:     s.coalesced.Load(),
		Failed:        s.failed.Load(),
		Cache:         s.cache.Stats(),
		Aggregate:     agg,
	})
}
