package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// Validate checks that the options describe a runnable simulation: a
// resolvable design whose routing a known router engine supports
// and provably makes progress on, a known Table 2 benchmark, a positive
// access count, a core count the design can host, and defined
// policy/mode values. Run performs the same checks with the same
// messages (both go through checkOptions); use Validate to fail fast
// before queuing work (e.g. building a sweep).
func (o Options) Validate() error {
	_, _, err := std.checkOptions(o, nil)
	return err
}

// resolvedDesign is o's design as a run uses it: the router override
// folded in, the engine name normalized to its registered form (empty
// selects the default, so Result.Design records what actually simulated
// and an empty and an explicit default engine share one CanonicalKey),
// validated under that engine, and passed through the network gate —
// topo and tb are the topology and routing table d.Build, routing.For
// and network.Check produced, so every run of the design shares them.
// It is shared and read-only; design hands out a private copy of d.
type resolvedDesign struct {
	d config.Design
	// head is the canonical encoding (hash.go) up to the design's end:
	// `{"Design":` + the JSON of d + `,`.
	head []byte
	// stack is d's bank stack as warmKey spells it (see stackKey).
	stack string
	topo  *topology.Topology
	tb    *routing.Table
}

// stackKey spells a bank stack as a comparable string, "size/ways," per
// bank, MRU bank first.
func stackKey(banks []bank.Spec) string {
	b := make([]byte, 0, 8*len(banks))
	for _, s := range banks {
		b = strconv.AppendInt(b, int64(s.SizeKB), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(s.Ways), 10)
		b = append(b, ',')
	}
	return string(b)
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

// resolveDesign resolves o's design and runs it through the design gate.
// A catalogue design (Options.Design == nil) comes from rt's memo, per
// (DesignID, Router): catalogue designs are constants and the topology,
// router and routing catalogues are fixed tables, so an entry
// never goes stale, and only successes are stored, so the memo holds at
// most |catalogue| x (|engines| + 1) entries — 36 today — and needs no
// bound or eviction. An ad-hoc design comes from pc's designs, keyed by
// the canonical head, when pc is non-nil, and is never stored in rt.
func (rt *Runtime) resolveDesign(o Options, pc *PrepCache) (*resolvedDesign, error) {
	key := designKey{o.DesignID, o.Router}
	if o.Design == nil {
		rt.mu.Lock()
		rd := rt.designs[key]
		rt.mu.Unlock()
		if rd != nil {
			return rd, nil
		}
	}
	rd, err := newResolvedDesign(o)
	if err != nil {
		return nil, err
	}
	if o.Design != nil && pc != nil {
		if prev := pc.designs[string(rd.head)]; prev != nil {
			return prev, nil
		}
	}
	if rd.topo, err = rd.d.Build(); err != nil {
		return nil, err
	}
	alg, err := routing.For(rd.topo)
	if err != nil {
		return nil, err
	}
	if rd.tb, err = network.Check(rd.topo, alg, rd.d.Router); err != nil {
		return nil, err
	}
	if o.Design != nil {
		if pc != nil {
			pc.designs[string(rd.head)] = rd
		}
		return rd, nil
	}
	// The first resolution stored wins, so concurrent first calls still
	// hand every caller one topology and one table.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if prev := rt.designs[key]; prev != nil {
		return prev, nil
	}
	if rt.designs == nil {
		rt.designs = map[designKey]*resolvedDesign{}
	}
	rt.designs[key] = rd
	return rd, nil
}

// newResolvedDesign runs the configuration checks, in the order Run has
// always surfaced their errors: the design resolves and validates under
// its own engine, the override names a registered engine, and the design
// validates under the override. resolveDesign adds the network gate.
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
	return &resolvedDesign{d: d, head: append(head, ','), stack: stackKey(d.Banks)}, nil
}

// normalizedCPU is the core model configuration o simulates with: a zero
// config selects the defaults (checkOptions rejects a zero Window with a
// non-zero BlockingProb), and the run's seed drives the CPU RNG.
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
// returns the gated design and the benchmark profile for Prepare to
// build on; pc, when non-nil, shares an ad-hoc design's gate across a
// batch. The check order is the order Run has always surfaced these
// errors in.
func (rt *Runtime) checkOptions(o Options, pc *PrepCache) (rd *resolvedDesign, prof trace.Profile, err error) {
	if rd, err = rt.resolveDesign(o, pc); err != nil {
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
		if err := cmp.SupportsHost(rd.topo, rd.d.ID, o.Cores); err != nil {
			return nil, prof, err
		}
	}
	switch c := o.CPU; {
	case c.Window < 0:
		return nil, prof, fmt.Errorf("core: CPU.Window must be non-negative, got %d", c.Window)
	case !(c.BlockingProb >= 0 && c.BlockingProb <= 1):
		return nil, prof, fmt.Errorf("core: CPU.BlockingProb must be in [0,1], got %v", c.BlockingProb)
	case c.Window == 0 && c.BlockingProb != 0:
		return nil, prof, fmt.Errorf("core: CPU.BlockingProb %v needs a positive CPU.Window: a zero window selects the default core model", c.BlockingProb)
	}
	return rd, prof, cache.ValidatePair(o.Policy, o.Mode)
}
