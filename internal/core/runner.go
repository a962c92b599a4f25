package core

import (
	"fmt"

	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/telemetry"
	"nucanet/internal/trace"
)

// Validate checks that the options describe a runnable simulation: a
// resolvable design, a registered router engine that supports it, a
// known Table 2 benchmark, a positive access count, a core count the
// design can host, and defined policy/mode values. Run performs the same
// checks with the same messages (both go through checkOptions); use
// Validate to fail fast before queuing work (e.g. building a sweep).
func (o Options) Validate() error {
	_, _, err := checkOptions(o)
	return err
}

// resolveDesign resolves o's design with the router override folded in
// and the engine name normalized to its registered form (empty selects
// the default), so Result.Design records what actually simulated and an
// empty and an explicit default engine share one CanonicalKey.
func resolveDesign(o Options) (config.Design, error) {
	dp, err := config.Resolve(o.DesignID, o.Design)
	if err != nil {
		return config.Design{}, err
	}
	d := *dp
	if o.Router != "" {
		d.Router.Engine = o.Router
	}
	eng, err := router.ByName(d.Router.Engine)
	if err != nil {
		return config.Design{}, err
	}
	d.Router.Engine = eng.Name
	return d, nil
}

// checkOptions is the one place an Options value is judged runnable. It
// returns the resolved design and the benchmark profile for Prepare to
// build on. The check order is the order Run has always surfaced these
// errors in.
func checkOptions(o Options) (d config.Design, prof trace.Profile, err error) {
	if d, err = resolveDesign(o); err != nil {
		return d, prof, err
	}
	if o.Router != "" {
		// Resolve validated the design under its own engine; the override
		// may not support the topology.
		if err := d.Validate(); err != nil {
			return d, prof, err
		}
	}
	if prof, err = trace.ProfileByName(o.Benchmark); err != nil {
		return d, prof, err
	}
	if o.Accesses <= 0 {
		return d, prof, fmt.Errorf("core: accesses must be positive, got %d", o.Accesses)
	}
	if o.Cores < 0 {
		return d, prof, fmt.Errorf("core: cores must be non-negative, got %d", o.Cores)
	}
	if o.Cores > 0 {
		topo, err := d.Build()
		if err != nil {
			return d, prof, err
		}
		if err := cmp.SupportsHost(topo, d.ID, o.Cores); err != nil {
			return d, prof, err
		}
	}
	return d, prof, cache.ValidatePair(o.Policy, o.Mode)
}

// Runner is the stable entry point for configuring and executing one
// simulation: start from the baseline defaults, apply typed options, and
// Run — which validates before simulating. Prefer this over poking
// Options fields directly; new configuration surface is added here
// without breaking callers.
//
//	r, err := core.NewRunner(core.WithBenchmark("mcf"), core.WithAccesses(5000)).Run()
type Runner struct {
	opts Options
}

// An Option mutates the run configuration; apply them with NewRunner or
// Runner.With.
type Option func(*Options)

// WithDesignID selects a Table 3 design ("A".."F").
func WithDesignID(id string) Option {
	return func(o *Options) { o.DesignID = id; o.Design = nil }
}

// WithDesign supplies an ad-hoc design, overriding any id.
func WithDesign(d *config.Design) Option {
	return func(o *Options) { o.Design = d }
}

// WithScheme selects the replacement policy and delivery mode together
// (the paper's experiments always vary them as a pair).
func WithScheme(p cache.Policy, m cache.Mode) Option {
	return func(o *Options) { o.Policy = p; o.Mode = m }
}

// WithRouter selects a registered router microarchitecture by name,
// overriding the design's engine ("" keeps the design default).
func WithRouter(name string) Option {
	return func(o *Options) { o.Router = name }
}

// WithBenchmark selects a Table 2 workload profile.
func WithBenchmark(name string) Option {
	return func(o *Options) { o.Benchmark = name }
}

// WithAccesses sets the measured L2 access count.
func WithAccesses(n int) Option {
	return func(o *Options) { o.Accesses = n }
}

// WithSeed sets the workload/CPU RNG seed.
func WithSeed(s uint64) Option {
	return func(o *Options) { o.Seed = s }
}

// WithTelemetry enables cycle-level probes.
func WithTelemetry(tc telemetry.Config) Option {
	return func(o *Options) { o.Telemetry = tc }
}

// NewRunner builds a Runner from DefaultOptions with opts applied in
// order (later options win).
func NewRunner(opts ...Option) *Runner {
	r := &Runner{opts: DefaultOptions()}
	return r.With(opts...)
}

// With applies further options and returns r for chaining.
func (r *Runner) With(opts ...Option) *Runner {
	for _, f := range opts {
		f(&r.opts)
	}
	return r
}

// Options returns a copy of the accumulated configuration.
func (r *Runner) Options() Options { return r.opts }

// Run validates the configuration and executes the simulation.
func (r *Runner) Run() (Result, error) {
	if err := r.opts.Validate(); err != nil {
		return Result{}, err
	}
	return Run(r.opts)
}
