package serve

import (
	"encoding/json"
	"slices"
	"strings"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/router"
	"nucanet/internal/stats"
	"nucanet/internal/telemetry"
	"nucanet/internal/trace"
)

// RunRequest is the POST /v1/run body. Every field is optional; the
// zero request runs the baseline configuration (core.DefaultOptions).
type RunRequest struct {
	Design    string  `json:"design,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	Mode      string  `json:"mode,omitempty"`
	Router    string  `json:"router,omitempty"`
	Benchmark string  `json:"benchmark,omitempty"`
	Accesses  int     `json:"accesses,omitempty"`
	Seed      *uint64 `json:"seed,omitempty"`
	// Cores switches the run to full-system CMP mode (core.Options.Cores):
	// N trace-driven cores sharing the fabric. 0 is the classic
	// single-core run.
	Cores     int               `json:"cores,omitempty"`
	Telemetry *TelemetryRequest `json:"telemetry,omitempty"`
}

// TelemetryRequest selects the probes whose artifacts are embedded in
// the response. The flit-level event trace is deliberately not exposed
// over HTTP (unbounded body growth); use cmd/nucasim -trace for that.
type TelemetryRequest struct {
	Heatmap     bool `json:"heatmap,omitempty"`
	SampleEvery int  `json:"sample_every,omitempty"`
}

// options validates the request field by field and builds the
// core.Options it denotes. Every rejection is a field-scoped 400 whose
// message is composed from catalogue knowledge (never from internal
// error strings), satisfying the no-leak contract of errors.go.
func (r RunRequest) options(maxAccesses int) (core.Options, *apiError) {
	o := core.DefaultOptions()
	if r.Design != "" {
		if _, ok := slices.BinarySearch(config.DesignIDs(), r.Design); !ok {
			return o, badField("design", "unknown design %q; known designs: %s",
				r.Design, strings.Join(config.DesignIDs(), ", "))
		}
		o.DesignID = r.Design
	}
	if r.Policy != "" {
		p, err := cache.PolicyByName(r.Policy)
		if err != nil {
			return o, badField("policy", "unknown policy %q; known policies: %s",
				r.Policy, strings.Join(cache.PolicyNames(), ", "))
		}
		o.Policy = p
	}
	if r.Mode != "" {
		m, err := cache.ParseMode(r.Mode)
		if err != nil {
			return o, badField("mode", "unknown mode %q; known modes: unicast, multicast", r.Mode)
		}
		o.Mode = m
	}
	if r.Router != "" {
		if _, err := router.ByName(r.Router); err != nil {
			return o, badField("router", "unknown router %q; known routers: %s",
				r.Router, strings.Join(router.Names(), ", "))
		}
		o.Router = r.Router
	}
	if r.Benchmark != "" {
		if _, err := trace.ProfileByName(r.Benchmark); err != nil {
			return o, badField("benchmark", "unknown benchmark %q; known benchmarks: %s",
				r.Benchmark, strings.Join(trace.Names(), ", "))
		}
		o.Benchmark = r.Benchmark
	}
	if r.Accesses != 0 {
		if r.Accesses < 0 {
			return o, badField("accesses", "accesses must be positive, got %d", r.Accesses)
		}
		if r.Accesses > maxAccesses {
			return o, badField("accesses", "accesses must be at most %d, got %d", maxAccesses, r.Accesses)
		}
		o.Accesses = r.Accesses
	}
	if r.Seed != nil {
		o.Seed = *r.Seed
	}
	if r.Cores != 0 {
		if r.Cores < 0 {
			return o, badField("cores", "cores must be non-negative, got %d", r.Cores)
		}
		o.Cores = r.Cores
	}
	if r.Telemetry != nil {
		if r.Telemetry.SampleEvery < 0 {
			return o, badField("telemetry.sample_every", "sample_every must be >= 0, got %d", r.Telemetry.SampleEvery)
		}
		o.Telemetry = telemetry.Config{
			Heatmap:     r.Telemetry.Heatmap,
			SampleEvery: r.Telemetry.SampleEvery,
		}
	}
	return o, nil
}

// gateError is the API error for options the run gate (core.CanonicalKey)
// rejected. options checks every field on its own; whether the design
// can host the cores is left to the gate, so a failure that goes away at
// cores 0 is the cores field's. Any other residual failure is reported
// without the internal error text.
func gateError(o core.Options) *apiError {
	solo := o
	solo.Cores = 0
	if o.Cores > 0 && solo.Validate() == nil {
		return badField("cores", "design %q cannot host %d cores: a CMP run needs a full router grid with width >= cores",
			o.DesignID, o.Cores)
	}
	return badField("", "invalid run configuration")
}

// RunResponse is the POST /v1/run body on success: the request's
// resolved identity (including its content address) plus the paper's
// headline measurements. Marshaling is deterministic — plain structs,
// no maps — so equal configurations always serve byte-identical bodies,
// cold or cached (pinned by TestServeDeterministicBodies).
type RunResponse struct {
	ConfigHash string `json:"config_hash"`
	Design     string `json:"design"`
	Topology   string `json:"topology"`
	Router     string `json:"router"`
	Policy     string `json:"policy"`
	Mode       string `json:"mode"`
	Benchmark  string `json:"benchmark"`
	Accesses   int    `json:"accesses"`
	Seed       uint64 `json:"seed"`

	IPC          float64 `json:"ipc"`
	PerfectIPC   float64 `json:"perfect_ipc"`
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`

	AvgLatency     float64 `json:"avg_latency"`
	AvgHitLatency  float64 `json:"avg_hit_latency"`
	AvgMissLatency float64 `json:"avg_miss_latency"`
	HitRate        float64 `json:"hit_rate"`
	P50            int64   `json:"p50"`
	P90            int64   `json:"p90"`
	P99            int64   `json:"p99"`

	BankShare    float64 `json:"bank_share"`
	NetworkShare float64 `json:"network_share"`
	MemShare     float64 `json:"mem_share"`

	FlitsInjected    uint64 `json:"flits_injected"`
	PacketsDelivered uint64 `json:"packets_delivered"`
	MemReads         uint64 `json:"mem_reads"`
	MemWriteBacks    uint64 `json:"mem_writebacks"`

	EnergyPJ          float64 `json:"energy_pj"`
	EnergyPerAccessNJ float64 `json:"energy_per_access_nj"`

	// Cores echoes the CMP core count (0 on classic runs); PerCore holds
	// the per-core outcomes of a CMP run, and Directory the ownership
	// summary when the directory policy ran. All slices, no maps, so
	// bodies stay byte-deterministic.
	Cores     int                `json:"cores,omitempty"`
	PerCore   []CoreResponse     `json:"per_core,omitempty"`
	Directory *DirectoryResponse `json:"directory,omitempty"`

	Telemetry *TelemetryResponse `json:"telemetry,omitempty"`
}

// CoreResponse is one CMP core's outcome in a RunResponse.
type CoreResponse struct {
	Core        int     `json:"core"`
	IPC         float64 `json:"ipc"`
	AvgLatency  float64 `json:"avg_latency"`
	HitRate     float64 `json:"hit_rate"`
	RemoteShare float64 `json:"remote_share"`
	Cycles      int64   `json:"cycles"`
}

// DirectoryResponse condenses the directory policy's ownership report:
// per-owner rows ascending plus the eviction split.
type DirectoryResponse struct {
	Owners     []DirectoryOwner `json:"owners"`
	SelfDrops  int64            `json:"self_drops"`
	CrossDrops int64            `json:"cross_drops"`
}

// DirectoryOwner is one owner's row of the directory report.
type DirectoryOwner struct {
	Owner uint64 `json:"owner"`
	Live  int64  `json:"live"`
	Fills int64  `json:"fills"`
	Hits  int64  `json:"hits"`
	Drops int64  `json:"drops"`
}

// TelemetryResponse embeds the probe artifacts a request asked for.
type TelemetryResponse struct {
	// BankAccesses and BankHits are [column][position] counters from the
	// heatmap probe.
	BankAccesses [][]uint64 `json:"bank_accesses,omitempty"`
	BankHits     [][]uint64 `json:"bank_hits,omitempty"`
	// Samples is the queue-occupancy time-series length; MaxInFlight and
	// MaxPending are its peaks.
	Samples     int   `json:"samples,omitempty"`
	MaxInFlight int32 `json:"max_in_flight,omitempty"`
	MaxPending  int32 `json:"max_pending,omitempty"`
}

// buildResponse marshals one completed run. The bytes are what the
// cache stores and every subsequent hit serves verbatim.
func buildResponse(key string, res core.Result) ([]byte, error) {
	resp := RunResponse{
		ConfigHash: key,
		Design:     res.Design.ID,
		Topology:   res.Design.Topology,
		Router:     res.Design.Router.Engine,
		Policy:     res.Options.Policy.String(),
		Mode:       res.Options.Mode.String(),
		Benchmark:  res.Options.Benchmark,
		Accesses:   res.Options.Accesses,
		Seed:       res.Options.Seed,

		IPC:          res.IPC,
		PerfectIPC:   res.PerfectIPC,
		Instructions: res.Instructions,
		Cycles:       res.Cycles,

		AvgLatency:     res.AvgLatency,
		AvgHitLatency:  res.AvgHit,
		AvgMissLatency: res.AvgMiss,
		HitRate:        res.HitRate,

		BankShare:    res.BankShare,
		NetworkShare: res.NetworkShare,
		MemShare:     res.MemShare,

		FlitsInjected:    res.Network.FlitsInjected,
		PacketsDelivered: res.Network.PacketsDelivered,
		MemReads:         res.Memory.Reads,
		MemWriteBacks:    res.Memory.WriteBacks,

		EnergyPJ:          res.Energy.TotalPJ(),
		EnergyPerAccessNJ: res.Energy.PerAccessNJ(),
	}
	if res.Latency != nil {
		resp.P50 = res.Latency.Percentile(0.50)
		resp.P90 = res.Latency.Percentile(0.90)
		resp.P99 = res.Latency.Percentile(0.99)
	}
	if len(res.Cores) > 0 {
		resp.Cores = res.Options.Cores
		for _, c := range res.Cores {
			resp.PerCore = append(resp.PerCore, CoreResponse{
				Core: c.Core, IPC: c.IPC, AvgLatency: c.AvgLatency,
				HitRate: c.HitRate, RemoteShare: c.RemoteShare, Cycles: c.Cycles,
			})
		}
	}
	if d := res.Directory; d != nil {
		dr := &DirectoryResponse{SelfDrops: d.SelfDrops, CrossDrops: d.CrossDrops}
		for _, o := range d.Owners {
			dr.Owners = append(dr.Owners, DirectoryOwner{
				Owner: o, Live: d.Live[o], Fills: d.Fills[o], Hits: d.Hits[o], Drops: d.Drops[o],
			})
		}
		resp.Directory = dr
	}
	if tel := res.Telemetry; tel != nil {
		tr := &TelemetryResponse{}
		if tel.Heat != nil {
			tr.BankAccesses = tel.Heat.BankAccesses
			tr.BankHits = tel.Heat.BankHits
		}
		if s := tel.Series; s != nil && s.Len() > 0 {
			tr.Samples = s.Len()
			tr.MaxInFlight = slices.Max(s.InFlight)
			tr.MaxPending = slices.Max(s.Pending)
		}
		resp.Telemetry = tr
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// latencySummary condenses a merged stats.Latency for /v1/stats.
type latencySummary struct {
	Count      int64   `json:"count"`
	AvgLatency float64 `json:"avg_latency"`
	HitRate    float64 `json:"hit_rate"`
	P50        int64   `json:"p50"`
	P90        int64   `json:"p90"`
	P99        int64   `json:"p99"`
}

func summarize(l *stats.Latency) latencySummary {
	return latencySummary{
		Count:      l.Count,
		AvgLatency: l.Avg(),
		HitRate:    l.HitRate(),
		P50:        l.Percentile(0.50),
		P90:        l.Percentile(0.90),
		P99:        l.Percentile(0.99),
	}
}
