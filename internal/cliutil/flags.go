package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nucanet/internal/cache"
	"nucanet/internal/core"
	"nucanet/internal/router"
	"nucanet/internal/telemetry"
)

// Design registers the standard -design flag (a Table 3 id) and returns
// its destination.
func Design(fs *flag.FlagSet) *string {
	return fs.String("design", "A", "network design (A-F from Table 3, or extra: R ring, G cmesh)")
}

// Scheme registers the typed -policy and -mode flags. cache.Policy and
// cache.Mode implement flag.Value, so parse errors surface through the
// flag package with the registered names — no per-binary ParsePolicy /
// ParseMode plumbing. The help text enumerates the registry, so a policy
// added with cache.RegisterPolicy shows up (and parses) on every binary
// automatically.
func Scheme(fs *flag.FlagSet) (*cache.Policy, *cache.Mode) {
	p, m := cache.FastLRU, cache.Multicast
	fs.Var(&p, "policy", "replacement policy: "+strings.Join(cache.PolicyNames(), ", "))
	fs.Var(&m, "mode", "request mode: unicast, multicast")
	return &p, &m
}

// ListSchemes prints the registered replacement policies and the request
// modes — the -list=policies output shared by the binaries.
func ListSchemes(w io.Writer) {
	fmt.Fprintln(w, "registered replacement policies:")
	for _, name := range cache.PolicyNames() {
		fmt.Fprintf(w, "  %s\n", name)
	}
	fmt.Fprintln(w, "request modes:")
	for _, m := range []cache.Mode{cache.Unicast, cache.Multicast} {
		fmt.Fprintf(w, "  %s\n", m)
	}
}

// Router registers the standard -router flag (a registered router
// microarchitecture; empty keeps the design's engine) and returns its
// destination. The help text enumerates the registry, so an engine added
// with router.Register shows up on every binary automatically.
func Router(fs *flag.FlagSet) *string {
	return fs.String("router", "", "router microarchitecture: "+
		strings.Join(router.Names(), ", ")+" (default: the design's engine, "+router.DefaultEngine+")")
}

// ListRouters prints the registered router microarchitectures — the
// -list=routers output shared by the binaries.
func ListRouters(w io.Writer) {
	fmt.Fprintln(w, "registered router engines:")
	for _, name := range router.Names() {
		b, err := router.ByName(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-12s %s\n", name, b.Description)
	}
}

// Cores registers the standard -cores flag (core.Options.Cores) and
// returns its destination: N > 0 runs the full-system CMP fabric with N
// trace-driven cores sharing the cache; 0 keeps the classic single-core
// path.
func Cores(fs *flag.FlagSet) *int {
	return fs.Int("cores", 0, "run as an N-core CMP (trace-driven cores sharing the fabric; 0 = classic single-core)")
}

// TelemetryFlags holds the destinations of the standard telemetry flag
// trio (-trace, -heatmap, -sample); read them after fs.Parse.
type TelemetryFlags struct {
	TracePath *string // output file for the flit-level JSONL trace, '-' = stdout
	Heatmap   *bool
	Sample    *int
}

// Telemetry registers the telemetry flag trio on fs. Both CLIs accept
// exactly these flags with these semantics; build the run configuration
// with Config.
func Telemetry(fs *flag.FlagSet) *TelemetryFlags {
	return &TelemetryFlags{
		TracePath: fs.String("trace", "", "write the flit-level JSONL event trace to this file ('-' = stdout)"),
		Heatmap:   fs.Bool("heatmap", false, "print ASCII link/bank heatmaps per run"),
		Sample:    fs.Int("sample", 0, "sample queue occupancy every N cycles and print the time series"),
	}
}

// Config converts the parsed flags into the run configuration: tracing is
// enabled exactly when a trace path was given.
func (t *TelemetryFlags) Config() telemetry.Config {
	return telemetry.Config{
		Trace:       *t.TracePath != "",
		Heatmap:     *t.Heatmap,
		SampleEvery: *t.Sample,
	}
}

// WriteTraces serializes every run's flit-level event trace to one JSONL
// stream at path ('-' = stdout) in slice order, each run introduced by a
// {"ev":"run",...} meta line; runs without a trace are skipped. Run
// order and event order are both deterministic, so the stream is
// byte-identical for a fixed seed at any -j.
func WriteTraces(path string, results []core.Result) error {
	if path == "-" {
		return writeTraces(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTraces(f, results); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func writeTraces(w io.Writer, results []core.Result) error {
	for _, r := range results {
		if r.Telemetry == nil || r.Telemetry.Trace == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "{\"ev\":\"run\",\"design\":%q,\"bench\":%q,\"seed\":%d,\"events\":%d}\n",
			r.Options.DesignID, r.Options.Benchmark, r.Options.Seed, r.Telemetry.Trace.Len()); err != nil {
			return err
		}
		if err := r.Telemetry.Trace.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}
