package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

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

// resolvedDesign is o's design as a run uses it: the router override
// folded in, the engine name normalized to its registered form (empty
// selects the default, so Result.Design records what actually simulated
// and an empty and an explicit default engine share one CanonicalKey),
// and validated under that engine. It is shared and read-only; design
// hands out a private copy.
type resolvedDesign struct {
	d config.Design
	// head is the canonical encoding (hash.go) up to the design's end:
	// `{"Design":` + the JSON of d + `,`.
	head []byte
}

// design returns a private copy of the resolved design. Banks and
// Params.VertDelay are its only reference fields.
func (rd *resolvedDesign) design() config.Design {
	d := rd.d
	d.Banks = slices.Clone(d.Banks)
	d.Params.VertDelay = slices.Clone(d.Params.VertDelay)
	return d
}

type designKey struct{ id, router string }

// designMemo holds every catalogue design (Options.Design == nil) that
// resolved, per (DesignID, Router), for the life of the process.
// Catalogue designs are constants and the topology, router and routing
// registries are read-only after init, so an entry never goes stale.
// Only successes are stored, so it holds at most |catalogue| x
// (|engines| + 1) entries — 36 today — and needs no bound or eviction.
var designMemo struct {
	sync.Mutex
	m map[designKey]*resolvedDesign
}

// resolveDesign resolves o's design, from designMemo when o names a
// catalogue design. An ad-hoc Options.Design takes the same path and is
// not stored.
func resolveDesign(o Options) (*resolvedDesign, error) {
	key := designKey{o.DesignID, o.Router}
	if o.Design == nil {
		designMemo.Lock()
		rd := designMemo.m[key]
		designMemo.Unlock()
		if rd != nil {
			return rd, nil
		}
	}
	rd, err := newResolvedDesign(o)
	if err != nil || o.Design != nil {
		return rd, err
	}
	designMemo.Lock()
	if designMemo.m == nil {
		designMemo.m = map[designKey]*resolvedDesign{}
	}
	designMemo.m[key] = rd
	designMemo.Unlock()
	return rd, nil
}

// newResolvedDesign runs every design check, in the order Run has always
// surfaced their errors: the design resolves and validates under its own
// engine, the override names a registered engine, and the design
// validates under the override.
func newResolvedDesign(o Options) (*resolvedDesign, error) {
	dp, err := config.Resolve(o.DesignID, o.Design)
	if err != nil {
		return nil, err
	}
	d := *dp
	if o.Router != "" {
		d.Router.Engine = o.Router
	}
	eng, err := router.ByName(d.Router.Engine)
	if err != nil {
		return nil, err
	}
	d.Router.Engine = eng.Name
	if o.Router != "" {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	frag, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("core: canonical encoding: %w", err)
	}
	head := append([]byte(`{"Design":`), frag...)
	return &resolvedDesign{d: d, head: append(head, ',')}, nil
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
func checkOptions(o Options) (rd *resolvedDesign, prof trace.Profile, err error) {
	if rd, err = resolveDesign(o); err != nil {
		return nil, prof, err
	}
	if prof, err = trace.ProfileByName(o.Benchmark); err != nil {
		return nil, prof, err
	}
	if o.Accesses <= 0 {
		return nil, prof, fmt.Errorf("core: accesses must be positive, got %d", o.Accesses)
	}
	if o.Cores < 0 {
		return nil, prof, fmt.Errorf("core: cores must be non-negative, got %d", o.Cores)
	}
	if o.Cores > 0 {
		topo, err := rd.d.Build()
		if err != nil {
			return nil, prof, err
		}
		if err := cmp.SupportsHost(topo, rd.d.ID, o.Cores); err != nil {
			return nil, prof, err
		}
	}
	return rd, prof, cache.ValidatePair(o.Policy, o.Mode)
}
