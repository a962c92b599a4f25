// Command benchmark is the repository's benchmark harness: four workloads,
// eight end-to-end metrics measured with tracing off, and a traced pass that
// attributes host time to the layers under internal/ by timing calls into
// their exported functions from outside. See README.md.
//
// It runs from this directory (run.sh and `go run .` both do):
//
//	go run . -workload all -seed 1          # every workload, both passes
//	go run . -workload mesh_long -trace 1   # one workload's traced pass
//	go run . -repeat 2                      # the full set twice, compared
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	harnessVersion = "1"
	defaultSeed    = 1 // the seed expected/<workload>.seed1.txt was written on
	defaultSeconds = 20
)

// outDir receives the result and span files; tests point it elsewhere.
var outDir = "out"

// scale sizes everything in a run that is not set by -seconds.
type scale struct {
	setupReps  int // set-ups per run; setup_s is their median
	warmupOps  int // untimed ops of a direct workload's set-up
	simOps     int // direct: ops the timed pass always runs; sim_* and the fingerprint cover exactly these
	simReqs    int // serve_mixed: the same, per client
	verifyOps  int // ops re-run another way after the timed pass
	tracedOps  int // direct: most ops the traced pass covers
	tracedReqs int // serve_mixed: requests per client in the traced pass
	siblings   int // serve_mixed: cold requests re-run directly, decomposed
	probeOps   int // ops whose lower layers are re-executed standalone
	tailBeyond int // samples op_ms_p90 needs beyond it
	probes     probeSizes
}

var (
	fullScale = scale{
		setupReps: 3, warmupOps: 2, simOps: 16, simReqs: 500, verifyOps: 2,
		tracedOps: 20, tracedReqs: 1000, siblings: 20, probeOps: 5, tailBeyond: 3,
		probes: fullProbes,
	}
	// smokeScale drives every code path in a few seconds: 3 ops per
	// workload, probes at 1% size, no measuring window.
	smokeScale = scale{
		setupReps: 1, warmupOps: 1, simOps: 3, simReqs: 30, verifyOps: 1,
		tracedOps: 3, tracedReqs: 30, siblings: 2, probeOps: 1, tailBeyond: 0,
		probes: fullProbes.scaled(0.01),
	}
)

type runConfig struct {
	seed          uint64
	seconds       float64
	trace         bool
	smoke         bool
	writeExpected bool
	sc            scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the result file: the result line plus what is needed to read
// the numbers later.
type report struct {
	resultLine
	Harness        string             `json:"harness_version"`
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Trace          bool               `json:"trace"`
	Smoke          bool               `json:"smoke"`
	Host           hostInfo           `json:"host"`
	Samples        int                `json:"timed_samples"`
	OpMsP90        float64            `json:"op_ms_p90"` // ungated tail of the timed pass; 0 when Samples is too few
	FailedOpsShare float64            `json:"failed_ops_share"`
	Fingerprint    string             `json:"fingerprint"`
	SelfTimeMS     map[string]float64 `json:"self_time_ms_p50,omitempty"`
	Notes          []string           `json:"notes,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; op i runs with splitmix64(seed, i)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measuring window")
	trace := fs.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	smoke := fs.Bool("smoke", false, "3 ops per workload and probes at 1% size: exercises the harness, measures nothing")
	repeat := fs.Int("repeat", 1, "with -workload all: run the full set this many times and compare the first two")
	writeExpected := fs.Bool("write-expected", false, "after a clean timed pass, rewrite expected/<workload>.seed<seed>.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
		writeExpected: *writeExpected, sc: fullScale}
	if cfg.smoke {
		cfg.sc, cfg.seconds = smokeScale, 0
	}
	if *name == "all" {
		return runAll(args, *repeat, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if cfg.smoke {
		w.base.Accesses /= 10 // different ops than the full run: the expected files do not apply
	}
	rep, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	if err := rep.write(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload is one process's work: set up, measure, check.
func runWorkload(w workload, cfg runConfig) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Harness: harnessVersion, Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Smoke: cfg.smoke, Host: readHost(),
	}
	rep.Metrics = map[string]metricValue{}
	var passes []*pass
	var values map[string]float64
	var defs []metricDef
	var err error
	if cfg.trace {
		defs = perLayer
		values, passes, err = measureLayers(w, cfg, rep)
	} else {
		defs = endToEnd
		values, passes, err = measureEndToEnd(w, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	for _, p := range passes {
		rep.Attempted += len(p.ops)
		rep.Failed += p.failed()
		rep.Notes = append(rep.Notes, p.notes...)
	}
	rep.Correct = rep.Failed == 0
	rep.FailedOpsShare = float64(rep.Failed) / float64(rep.Attempted)
	if cfg.writeExpected && !cfg.trace && rep.Correct {
		if err := writeExpectedFile(w, cfg.seed, passes[0]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setUp runs a workload's set-up once and returns how long it took. For
// serve_mixed the primed service comes back and the caller closes it.
func setUp(w workload, cfg runConfig) (*target, time.Duration, error) {
	t0 := time.Now()
	if w.serve {
		t, err := startTarget(cfg.seed)
		return t, time.Since(t0), err
	}
	err := warmupDirect(w, cfg.seed, cfg.sc.warmupOps)
	return nil, time.Since(t0), err
}

// timedPass is the untraced closed loop: core.Run calls from one caller, or
// requests from two clients, until budget and the minimum are both met.
func timedPass(w workload, seed uint64, t *target, budget time.Duration, minOps, maxOps int) *pass {
	if w.serve {
		return runServe(t, seed, budget, minOps, maxOps, nil)
	}
	return timedDirect(w, seed, budget, minOps, maxOps)
}

func measureEndToEnd(w workload, cfg runConfig, rep *report) (map[string]float64, []*pass, error) {
	var t *target
	setups := make([]float64, cfg.sc.setupReps)
	for i := range setups {
		if t != nil {
			t.close()
		}
		var d time.Duration
		var err error
		if t, d, err = setUp(w, cfg); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = d.Seconds()
	}
	if t != nil {
		defer t.close()
	}
	minOps := cfg.sc.simOps
	if w.serve {
		minOps = cfg.sc.simReqs
	}
	p := timedPass(w, cfg.seed, t, time.Duration(cfg.seconds*float64(time.Second)), minOps, math.MaxInt)

	durs := p.durations()
	var err error
	if rep.OpMsP90, err = percentile(durs, 0.9, cfg.sc.tailBeyond); err != nil {
		rep.Notes = append(rep.Notes, "op_ms_p90 not reported: "+err.Error())
	}
	var accesses float64
	for _, o := range p.ops {
		accesses += float64(o.accesses)
	}
	if accesses == 0 {
		return nil, nil, fmt.Errorf("every op failed: %s", strings.Join(p.notes, "; "))
	}
	prefix := p.prefix(cfg.sc.simOps, cfg.sc.simReqs)
	sim := simSample(prefix, w.serve)
	m := map[string]float64{
		"setup_s":               median(setups),
		"op_ms_p50":             median(durs),
		"accesses_per_s":        accesses / p.wall.Seconds(),
		"allocs_per_access":     float64(p.mallocs) / accesses,
		"alloc_kb_per_access":   float64(p.bytes) / 1024 / accesses,
		"sim_ipc":               meanOf(sim, func(o opRecord) float64 { return o.ipc }),
		"sim_cycles_per_access": meanOf(sim, func(o opRecord) float64 { return o.latency }),
		"sim_hit_rate":          meanOf(sim, func(o opRecord) float64 { return o.hitRate }),
	}
	rep.Samples = len(durs)
	rep.Fingerprint = foldFingerprints(prefix)

	// Correctness beyond the per-op checks: the committed fingerprints on
	// the default seed, and on every seed a re-run of the first ops by
	// another route (decomposed, or direct instead of over HTTP).
	if !cfg.writeExpected && !cfg.smoke {
		if err := checkExpected(w, cfg.seed, p); err != nil {
			return nil, nil, err
		}
	}
	if w.serve {
		verifyServe(cfg.seed, cfg.sc.verifyOps, p)
	} else {
		rec := newRecorder()
		for i := 0; i < min(cfg.sc.verifyOps, len(p.ops)); i++ {
			compareOps(p, i, decomposedRecord(w, cfg.seed, i, rec, p), "decomposed Prepare/NewInstance/RunToCompletion")
		}
	}
	return m, []*pass{p}, nil
}

// decomposedRecord runs op i decomposed and returns its record.
func decomposedRecord(w workload, seed uint64, i int, rec *recorder, p *pass) opRecord {
	o := w.directOp(seed, i)
	t0 := time.Now()
	r, _, err := tracedOp(rec, i, o)
	return directRecord(o, r, err, time.Since(t0), p, i)
}

// compareOps fails op i of p when other, the same op run another way,
// produced a different output.
func compareOps(p *pass, i int, other opRecord, how string) {
	if !p.ops[i].failed && !other.failed && p.ops[i].fp != other.fp {
		p.ops[i].failed = true
		p.fail("op %d: fingerprint %016x, but %016x when run %s", i, p.ops[i].fp, other.fp, how)
	}
}

func measureLayers(w workload, cfg runConfig, rep *report) (map[string]float64, []*pass, error) {
	sc := cfg.sc
	budget := time.Duration(cfg.seconds * 0.3 * float64(time.Second))
	minOps, maxOps := min(3, sc.tracedOps), sc.tracedOps
	if w.serve {
		minOps, maxOps = sc.tracedReqs, sc.tracedReqs
	}

	// Reference pass: the timed pass's code over the ops the traced pass
	// will repeat, tracing off.
	t, _, err := setUp(w, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	ref := timedPass(w, cfg.seed, t, budget, minOps, maxOps)
	if t != nil {
		t.close()
	}

	// Traced pass over the same ops.
	rec := newRecorder()
	m := map[string]float64{}
	var traced *pass
	if w.serve {
		if t, _, err = setUp(w, cfg); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		defer t.close()
		traced = runServe(t, cfg.seed, 0, ref.client0, ref.client0, rec)
		tracedServeSiblings(cfg.seed, traced, sc.siblings, sc.probeOps, rec)
		st, err := t.serveStats()
		if err != nil {
			return nil, nil, err
		}
		hits, misses := rec.durs("serve.request.hit"), rec.durs("serve.request.miss")
		m["serve.hit_ms_p50"], m["serve.miss_ms_p50"] = median(hits), median(misses)
		m["serve.overhead_ms"] = median(misses) - median(rec.durs("core.Run"))
		m["serve.hit_share"] = float64(len(hits)) / float64(len(hits)+len(misses))
		m["serve.coalesced"], m["serve.rejected_429"] = float64(st.Coalesced), float64(st.Rejected)
		m["serve.cache_get_ns"], m["serve.cache_put_ns"] = probeServeCache(sc.probes.serveCache)
		if m["serve.sched_wait_us"], err = probeSched(sc.probes.schedJobs); err != nil {
			return nil, nil, err
		}
		m["harness.trace_overhead_share"] = median(traced.durations())/median(ref.durations()) - 1
	} else {
		traced = tracedDirect(w, cfg.seed, len(ref.ops), sc.probeOps, rec)
		m["harness.trace_overhead_share"] = median(rec.durs("core.Run"))/median(ref.durations()) - 1
	}
	for i := range min(len(ref.ops), len(traced.ops)) {
		compareOps(ref, i, traced.ops[i], "in the traced pass")
	}

	for name, vals := range rec.counts {
		m[name] = median(vals)
	}
	for _, sm := range spanMetrics {
		m[sm.metric] = median(rec.durs(sm.span)) * sm.scale
	}

	// Steady-state probes: fixed work, no workload ops involved except the
	// workload's design, policy, mode and benchmark.
	probeOpts := w.base
	if w.serve {
		probeOpts = serveOptions(0)
	}
	probeOpts.Seed = cfg.seed
	if m["router.step_ns"], m["router.flit_hop_ns"], m["router.step_allocs"], err = probeRouter(sc.probes.routerSteps, true); err != nil {
		return nil, nil, err
	}
	if _, m["router.flit_hop_ns_unicast"], _, err = probeRouter(sc.probes.routerSteps, false); err != nil {
		return nil, nil, err
	}
	m["sim.step_ns"], m["sim.step_allocs"] = probeKernel(sc.probes.simSteps)
	if m["cache.issue_drain_ns"], m["cache.probe_allocs_per_access"], err = probeCache(probeOpts, sc.probes.cacheAccs); err != nil {
		return nil, nil, err
	}
	if m["trace.next_ns"], err = probeTraceNext(probeOpts, sc.probes.traceNexts); err != nil {
		return nil, nil, err
	}
	if w.telemetryProbe {
		if m["telemetry.probe_overhead_share"], err = probeTelemetry(w, cfg.seed, sc.probes.telemetry); err != nil {
			return nil, nil, err
		}
	}

	m["harness.peak_rss_mb"] = peakRSSMiB()
	m["harness.gc_cycles"] = float64(ref.gcs)
	m["harness.gc_pause_ms"] = ms(ref.gcPause)
	m["harness.timed_wall_s"] = ref.wall.Seconds()

	rep.Samples = len(ref.ops)
	rep.Fingerprint = foldFingerprints(ref.prefix(minOps, minOps)) // the ops every run of this seed covers
	rep.SelfTimeMS = medianSelfTimes(rec.spans)
	if err := writeSpans(filepath.Join(outDir, w.Name+".trace.jsonl"), rec.spans); err != nil {
		return nil, nil, err
	}
	return m, []*pass{ref, traced}, nil
}

// spanMetrics are the per-layer metrics that are the median duration of a
// span, in the metric's unit (scale converts from ms).
var spanMetrics = []struct {
	span, metric string
	scale        float64
}{
	{"core.Prepare", "core.prepare_ms", 1},
	{"core.NewInstance", "core.build_ms", 1},
	{"core.RunToCompletion", "core.simulate_ms", 1},
	{"core.CanonicalKey", "core.canonical_key_us", 1000},
	{"config.Resolve", "config.resolve_us", 1000},
	{"topology.Build", "topology.build_ms", 1},
	{"routing.Precompute", "routing.precompute_ms", 1},
	{"trace.Generate", "trace.generate_ms", 1},
	{"cache.NewPrebuilt", "cache.construct_ms", 1},
	{"cache.Warm", "cache.warm_ms", 1},
	{"cache.BuildWarmImage", "cache.warm_image_build_ms", 1},
	{"cache.WarmClone", "cache.warm_clone_ms", 1},
	{"cmp.Attach", "cmp.attach_ms", 1},
}

// medianSelfTimes is the median self time of each span name, in ms.
func medianSelfTimes(spans []span) map[string]float64 {
	byName := map[string][]float64{}
	for k, d := range selfTimes(spans) {
		byName[k.name] = append(byName[k.name], ms(d))
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// prefix returns the fixed ops the workload fingerprint covers: the first
// simOps ops, or the first simReqs requests of each serve_mixed client. The
// timed pass always runs at least these, so what is computed over them
// depends on the seed and not on how fast the host is.
func (p *pass) prefix(simOps, simReqs int) []opRecord {
	if p.client0 == 0 {
		return p.ops[:min(simOps, len(p.ops))]
	}
	out := append([]opRecord(nil), p.ops[:min(simReqs, p.client0)]...)
	return append(out, p.ops[p.client0:min(p.client0+simReqs, len(p.ops))]...)
}

// simSample is the part of the prefix the sim_* metrics average over: all of
// it for a direct workload, the cold requests for serve_mixed. Each cold
// request is a fresh simulation; the hits repeat the 32 working-set bodies
// and would put 80% of the weight on 32 keys, which makes the mean wander by
// 3% between seeds.
func simSample(prefix []opRecord, serve bool) []opRecord {
	var out []opRecord
	for _, o := range prefix {
		if !o.failed && (o.cold || !serve) {
			out = append(out, o)
		}
	}
	return out
}

func meanOf(ops []opRecord, f func(opRecord) float64) float64 {
	vals := make([]float64, len(ops))
	for i, o := range ops {
		vals[i] = f(o)
	}
	return mean(vals)
}

func foldFingerprints(ops []opRecord) string {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%016x", o.fp)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func expectedPath(w workload, seed uint64) string {
	return filepath.Join("expected", fmt.Sprintf("%s.seed%d.txt", w.Name, seed))
}

// checkExpected compares, on the default seed, every op whose key the
// committed file lists with the fingerprint recorded there.
func checkExpected(w workload, seed uint64, p *pass) error {
	if seed != defaultSeed {
		return nil
	}
	raw, err := os.ReadFile(expectedPath(w, seed))
	if err != nil {
		return fmt.Errorf("expected fingerprints: %w", err)
	}
	want := map[uint64]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var k, fp uint64
		if _, err := fmt.Sscanf(line, "%d %x", &k, &fp); err != nil {
			return fmt.Errorf("%s: bad line %q", expectedPath(w, seed), line)
		}
		want[k] = fp
	}
	for i := range p.ops {
		o := &p.ops[i]
		if fp, ok := want[o.key]; ok && !o.failed && fp != o.fp {
			o.failed = true
			p.fail("op with key %d: fingerprint %016x, expected %016x", o.key, o.fp, fp)
		}
	}
	return nil
}

func writeExpectedFile(w workload, seed uint64, p *pass) error {
	fps := map[uint64]uint64{}
	for _, o := range p.prefix(256, 1000) { // enough to cover a run; the rest only grows the file
		fps[o.key] = o.fp
	}
	keys := make([]uint64, 0, len(fps))
	for k := range fps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%d %016x\n", k, fps[k])
	}
	return os.WriteFile(expectedPath(w, seed), b.Bytes(), 0o644)
}

func (r *report) resultPath() string {
	pass := "e2e"
	if r.Trace {
		pass = "layers"
	}
	return filepath.Join(outDir, r.Workload+"."+pass+".json")
}

func (r *report) write() error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.resultPath(), append(raw, '\n'), 0o644)
}

// print writes every metric by name with its unit, then the result line.
func (r *report) print(w io.Writer) {
	defs, pass := endToEnd, "timed pass"
	if r.Trace {
		defs, pass = perLayer, "traced pass"
	}
	fmt.Fprintf(w, "%s seed %d, %s: %d ops, %d failed (failed_ops_share %g), fingerprint %s\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.FailedOpsShare, r.Fingerprint)
	fmt.Fprintf(w, "host: %s, %d cpus, GOMAXPROCS %d, %s, git %s dirty=%v, harness v%s\n",
		r.Host.CPU, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GitRev, r.Host.GitDirty, r.Harness)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if !r.Trace {
		fmt.Fprintf(w, "  %-36s %14.6g ms  (not gated; %d samples)\n", "op_ms_p90", r.OpMsP90, r.Samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
	fmt.Fprintf(w, "results: %s\n", filepath.Join("benchmark", r.resultPath()))
	line, _ := json.Marshal(r.resultLine) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// runAll runs every workload's timed and traced pass, each in a fresh
// process of this binary, repeat times; with repeat >= 2 it compares the
// first two sets' end-to-end metrics against the bounds.
func runAll(args []string, repeat int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	sets := make([]map[string]resultLine, repeat)
	for s := range sets {
		sets[s] = map[string]resultLine{}
		for _, w := range workloads {
			for _, trace := range []string{"0", "1"} {
				child := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name, "-trace", trace)...)
				var out bytes.Buffer
				child.Stdout, child.Stderr = io.MultiWriter(stdout, &out), stderr
				if err := child.Run(); err != nil {
					fmt.Fprintf(stderr, "benchmark: %s -trace %s: %v\n", w.Name, trace, err)
					code = 1
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if json.Unmarshal([]byte(lines[len(lines)-1]), &res) == nil && trace == "0" {
					sets[s][w.Name] = res
				}
			}
		}
	}
	if repeat >= 2 && !compareSets(sets[0], sets[1], stdout) {
		code = 1
	}
	return code
}

// compareSets prints, per workload and end-to-end metric, both sets' values,
// their relative difference and the bound, and reports whether every
// difference is within its bound.
func compareSets(a, b map[string]resultLine, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "\n%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if !(diff <= d.Bound) { // also catches a missing run (NaN)
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				wl.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
