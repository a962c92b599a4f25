package core

import (
	"fmt"

	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/router"
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

// normalizedCPU is the core model configuration o simulates with: a zero
// Window selects the defaults, and the run's seed drives the CPU RNG.
// Prepare and CanonicalKey both call it, so configurations that simulate
// identically share one content address.
func normalizedCPU(o Options) cpu.Config {
	c := o.CPU
	if c.Window == 0 {
		c = cpu.DefaultConfig()
	}
	c.Seed = o.Seed
	return c
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
