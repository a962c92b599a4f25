package main

import (
	"nucanet/internal/cache"
	"nucanet/internal/core"
)

// metricDef names one metric the harness emits. BENCHMARK.json at the root
// of the repository carries the same tables; main_test.go keeps the two
// equal in both directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEnd is what a user of the simulator sees. Host-time metrics are wall
// clock; the sim_* metrics are simulated quantities over a fixed prefix of
// the op list, so they are a function of the seed alone and repeat exactly.
// The host-time bounds sit at the contract's cap because this shared 2-core
// host drifts by 10-20% over minutes (README, "Baseline"). The tail,
// op_ms_p90, is printed and filed with every run but is not in this list: on
// the direct workloads it moved 25% between identical runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"accesses_per_s", "1/s", "higher", 0.25},
	{"allocs_per_access", "count", "lower", 0.02},
	{"alloc_kb_per_access", "KiB", "lower", 0.02},
	{"sim_ipc", "IPC", "higher", 0.05},
	{"sim_cycles_per_access", "cycles", "lower", 0.05},
	{"sim_hit_rate", "ratio", "higher", 0.05},
}

// perLayer is the traced pass's output, layer = module under internal/.
// ms/us/ns are host time; everything else is a simulated count or a ratio.
// A metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"core.prepare_ms", "ms", "lower", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"core.simulate_ms", "ms", "lower", 0},
	{"core.prepare_share", "ratio", "lower", 0},
	{"core.build_share", "ratio", "lower", 0},
	{"core.simulate_share", "ratio", "higher", 0},
	{"core.prepare_allocs", "count", "lower", 0},
	{"core.build_allocs", "count", "lower", 0},
	{"core.simulate_allocs", "count", "lower", 0},
	{"core.simulate_ns_per_access", "ns", "lower", 0},
	{"core.simulate_ns_per_flit_hop", "ns", "lower", 0},
	{"core.simulate_ns_per_sim_cycle", "ns", "lower", 0},
	{"core.canonical_key_us", "us", "lower", 0},

	{"config.resolve_us", "us", "lower", 0},
	{"topology.build_ms", "ms", "lower", 0},
	{"topology.nodes", "count", "lower", 0},
	{"topology.links", "count", "lower", 0},
	{"routing.precompute_ms", "ms", "lower", 0},

	{"trace.generate_ms", "ms", "lower", 0},
	{"trace.next_ns", "ns", "lower", 0},

	{"cache.construct_ms", "ms", "lower", 0},
	{"cache.warm_ms", "ms", "lower", 0},
	{"cache.warm_image_build_ms", "ms", "lower", 0},
	{"cache.warm_clone_ms", "ms", "lower", 0},
	{"cache.issue_drain_ns", "ns", "lower", 0},
	{"cache.probe_allocs_per_access", "count", "lower", 0},
	{"cache.mru_hit_share", "ratio", "higher", 0},
	{"cache.avg_hit_cycles", "cycles", "lower", 0},
	{"cache.avg_miss_cycles", "cycles", "lower", 0},
	{"cache.avg_occupancy_cycles", "cycles", "lower", 0},
	{"cache.dir_cross_drops", "count", "lower", 0},

	{"bank.accesses_per_access", "count", "lower", 0},
	{"mem.reads_per_kaccess", "count", "lower", 0},
	{"mem.writebacks_per_kaccess", "count", "lower", 0},
	{"energy.nj_per_access", "nJ", "lower", 0},

	{"network.packets_per_access", "count", "lower", 0},
	{"router.flit_hops_per_access", "count", "lower", 0},
	{"router.replicas_per_access", "count", "lower", 0},
	{"router.credit_stalls_per_kaccess", "count", "lower", 0},
	{"router.replica_blocked_per_kaccess", "count", "lower", 0},
	{"router.step_ns", "ns", "lower", 0},
	{"router.flit_hop_ns", "ns", "lower", 0},
	{"router.step_allocs", "count", "lower", 0},
	{"router.flit_hop_ns_unicast", "ns", "lower", 0},

	{"sim.step_ns", "ns", "lower", 0},
	{"sim.step_allocs", "count", "lower", 0},
	{"sim.cycles_per_op", "cycles", "lower", 0},

	{"cpu.instructions_per_op", "count", "higher", 0},
	{"cmp.attach_ms", "ms", "lower", 0},
	{"cmp.remote_share", "ratio", "lower", 0},
	{"cmp.core_ipc_min", "IPC", "higher", 0},
	{"cmp.core_ipc_max", "IPC", "higher", 0},

	{"telemetry.probe_overhead_share", "ratio", "lower", 0},

	{"serve.hit_ms_p50", "ms", "lower", 0},
	{"serve.miss_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.hit_share", "ratio", "higher", 0},
	{"serve.coalesced", "count", "lower", 0},
	{"serve.rejected_429", "count", "lower", 0},
	{"serve.response_bytes", "count", "lower", 0},
	{"serve.cache_get_ns", "ns", "lower", 0},
	{"serve.cache_put_ns", "ns", "lower", 0},
	{"serve.sched_wait_us", "us", "lower", 0},

	{"harness.trace_overhead_share", "ratio", "lower", 0},
	{"harness.peak_rss_mb", "MiB", "lower", 0},
	{"harness.gc_cycles", "count", "lower", 0},
	{"harness.gc_pause_ms", "ms", "lower", 0},
	{"harness.timed_wall_s", "s", "lower", 0},
}

// workload is one set of inputs. A direct workload's operation is one
// core.Run of base with the op's seed; serve_mixed's is one POST /v1/run.
type workload struct {
	Name  string
	Why   string
	base  core.Options
	serve bool
	// telemetryProbe adds the probes-on/probes-off comparison to the traced
	// pass; one workload carrying it is enough to guard the layer.
	telemetryProbe bool
}

// workloads, in the order -workload all runs them. The Why strings are the
// ones in BENCHMARK.json.
var workloads = []workload{
	{
		Name: "mesh_long",
		Why:  "Design A 16x16 mesh, multicast Fast-LRU, gcc, 4000 accesses: simulate is >=90% of an op, so router, kernel and cache-protocol work shows here and cold-path work must not",
		base: core.Options{DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 4000},

		telemetryProbe: true,
	},
	{
		Name: "mesh_unicast_miss",
		Why:  "Design A with unicast LRU on lucas (18% misses, 40% writes): no multicast replicas, long replacement chains, write-backs, off-chip reads; catches a multicast/hit gain that costs unicast/miss traffic",
		base: core.Options{DesignID: "A", Policy: cache.LRU, Mode: cache.Unicast, Benchmark: "lucas", Accesses: 4000},
	},
	{
		Name: "cmp_h2",
		Why:  "Design H2 two-chiplet fabric, directory policy, 8 cores x 1000 accesses of gcc: the only workload on cmp, hier topology/routing and the directory engine; prepare is ~16% of an op",
		base: core.Options{DesignID: "H2", Policy: cache.Directory, Mode: cache.Multicast, Benchmark: "gcc", Accesses: 1000, Cores: 8},
	},
	{
		Name:  "serve_mixed",
		Why:   "nucad over HTTP, 2 closed-loop clients, Design F x 400 accesses, 80% from a primed 32-key working set, 20% never-seen keys: p50 is the cache-hit path, p90 the median cold request (prepare+build heavy)",
		serve: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix64 is the i-th output of the splitmix64 stream seeded with seed:
// every op derives its own seed from the workload seed and its index alone.
func splitmix64(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// warmupBase offsets the indices of untimed warm-up ops so they never
// coincide with a measured op.
const warmupBase = 1 << 40

// directOp is op i of a direct workload.
func (w workload) directOp(seed uint64, i int) core.Options {
	o := w.base
	o.Seed = splitmix64(seed, uint64(i))
	return o
}

// The serve_mixed request stream. Each client's requests come in blocks of
// serveBlock; exactly serveColdPerBlock of a block, at seeded positions, ask
// for a never-seen key and the rest pick from the primed working set. Fixing
// the cold share per block (instead of a coin flip per request) keeps the
// realised hit share, and with it allocs/access and accesses/s, from
// wandering by a binomial +-2% between seeds.
const (
	serveClients      = 2
	serveWorkingSet   = 32
	serveBlock        = 10
	serveColdPerBlock = 2
	serveAccesses     = 400
	serveDesign       = "F"
)

// workingSetSeed is the request seed of working-set key j.
func workingSetSeed(seed uint64, j int) uint64 {
	return splitmix64(seed, 1<<32+uint64(j))
}

// serveOp is request i of a client: the request's seed field and whether it
// is a never-seen (cold) key.
func serveOp(seed uint64, client, i int) (reqSeed uint64, cold bool) {
	stream := uint64(client+2) << 32
	block := uint64(i / serveBlock)
	r := splitmix64(seed, stream|1<<31|block)
	first := int(r % serveBlock)
	second := (first + 1 + int((r>>16)%(serveBlock-1))) % serveBlock
	if pos := i % serveBlock; pos == first || pos == second {
		return splitmix64(seed, stream|uint64(i)), true
	}
	pick := splitmix64(seed, stream|1<<30|uint64(i))
	return workingSetSeed(seed, int(pick%serveWorkingSet)), false
}

// serveOptions is the core.Options a serve_mixed request body denotes: the
// service starts from core.DefaultOptions and applies the body's fields.
func serveOptions(reqSeed uint64) core.Options {
	o := core.DefaultOptions()
	o.DesignID, o.Accesses, o.Seed = serveDesign, serveAccesses, reqSeed
	return o
}
