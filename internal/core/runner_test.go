package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/topology"
)

// memoEntry reports whether rt's design memo holds (id, rtr).
func memoEntry(rt *Runtime, id, rtr string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.designs[designKey{id, rtr}]
	return ok
}

// TestRunDesignPrivateCopies: every caller gets its own copy of the
// memoised design, so scribbling over a Result's or an Artifacts' design
// reaches neither the next key nor the next run.
func TestRunDesignPrivateCopies(t *testing.T) {
	opt := DefaultOptions()
	opt.DesignID, opt.Accesses = "F", 100
	key := mustKey(t, opt)
	want := mustRun(t, opt)
	scribble := func(d *config.Design) {
		d.Banks[0].SizeKB, d.Banks[len(d.Banks)-1].Ways = 1, 3
		d.Params.VertDelay[0] = 99
	}
	res := mustRun(t, opt)
	scribble(&res.Design)
	scribble(&mustPrepare(t, opt, nil).Design)
	scribble(&mustPrepare(t, opt, NewPrepCache()).Design)
	if got := mustKey(t, opt); got != key {
		t.Errorf("key moved after callers scribbled on their designs: %s, want %s", got, key)
	}
	if got := mustRun(t, opt); !reflect.DeepEqual(got, want) {
		t.Error("Result moved after callers scribbled on their designs")
	}
}

// TestCanonicalKeyMemoSkipsErrors: a failed resolution is not memoised —
// the same options fail again with byte-identical text through every
// entry point, leave no entry, and do not disturb a valid neighbour. (An
// engine whose Supports rejects the topology takes the same path; it is
// pinned in internal/router, whose test binary can add one.)
func TestCanonicalKeyMemoSkipsErrors(t *testing.T) {
	calls := map[string]func(Options) error{
		"Validate":     func(o Options) error { return o.Validate() },
		"CanonicalKey": func(o Options) error { _, err := CanonicalKey(o); return err },
		"Run":          func(o Options) error { _, err := Run(o); return err },
	}
	for name, mut := range map[string]func(*Options){
		"unknown design": func(o *Options) { o.DesignID = "Z" },
		"unknown router": func(o *Options) { o.Router = "optical" },
	} {
		o := DefaultOptions()
		mut(&o)
		var first string
		for call, f := range calls {
			for pass := 1; pass <= 2; pass++ {
				err := f(o)
				if err == nil {
					t.Fatalf("%s: %s call %d accepted the options", name, call, pass)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("%s: %s call %d: %q, want %q", name, call, pass, err, first)
				}
			}
		}
		if memoEntry(&std, o.DesignID, o.Router) {
			t.Errorf("%s: the failed resolution left a memo entry", name)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("defaults after the failures: %v", err)
	}
}

// TestCanonicalKeyMemoConcurrent fills a private runtime's memo from
// scratch on 8 goroutines mixing Validate, CanonicalKey and Run over every catalogue
// design and router: every answer equals the sequential one, runs of one
// pair share one topology however their gates raced, and the filled memo
// holds exactly |catalogue| x (|engines| + 1) entries.
func TestCanonicalKeyMemoConcurrent(t *testing.T) {
	type pair struct{ id, rtr string }
	var pairs []pair
	for _, d := range catalogue(t) {
		for _, rtr := range append([]string{""}, router.Names()...) {
			pairs = append(pairs, pair{d.ID, rtr})
		}
	}
	opts := func(p pair) Options {
		o := DefaultOptions()
		o.DesignID, o.Router, o.Accesses = p.id, p.rtr, 60
		return o
	}
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = mustKey(t, opts(p))
	}
	runs := []pair{{"F", ""}, {"F", "bufferless"}, {"D", "ring-lite"}, {"R", ""}}
	want := make([]Result, len(runs))
	for i, p := range runs {
		want[i] = mustRun(t, opts(p))
	}

	rt := new(Runtime)
	var wg sync.WaitGroup
	topos := make([]*topology.Topology, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines g and g+4 race to gate one pair on an empty memo.
			if art, err := rt.prepare(opts(runs[g%len(runs)]), nil); err != nil {
				t.Error(err)
			} else {
				topos[g] = art.Topo
			}
			for j := range pairs {
				i := (g*5 + j) % len(pairs)
				o := opts(pairs[i])
				if _, _, err := rt.checkOptions(o, nil); err != nil {
					t.Error(err)
				}
				if k, err := rt.canonicalKey(o); err != nil || k != keys[i] {
					t.Errorf("goroutine %d: %v: key %s (%v), want %s", g, pairs[i], k, err, keys[i])
				}
			}
			i := g % len(runs)
			if got, err := rt.Run(opts(runs[i])); err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("goroutine %d: %v differs from the sequential run", g, runs[i])
			}
		}(g)
	}
	wg.Wait()
	for g, topo := range topos {
		if want := mustPrepareOn(t, rt, opts(runs[g%len(runs)]), nil).Topo; topo != want {
			t.Errorf("goroutine %d: %v prepared its own topology, not the memoised one", g, runs[g%len(runs)])
		}
	}
	if n := len(rt.designs); n != len(pairs) {
		t.Errorf("memo holds %d entries, want %d (catalogue x (engines + 1))", n, len(pairs))
	}
}

// TestOptionsValidate pins Validate as Run's front door: on every kind
// of bad option the two fail with the same message. (An engine that
// cannot run a topology, or whose routing fails its progress proof, is
// not a row: no engine in the table does either on a catalogue design,
// and core's tests cannot add one. Both paths share resolveDesign's gate
// for them; router's test binary, which can add such engines, pins the
// errors.)
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"unknown design", func(o *Options) { o.DesignID = "Z" }, "unknown design"},
		{"unknown benchmark", func(o *Options) { o.Benchmark = "nope" }, "unknown"},
		{"unknown router", func(o *Options) { o.Router = "optical" }, "unknown engine"},
		{"bad policy", func(o *Options) { o.Policy = Options{}.Policy + 99 }, "unregistered policy"},
		{"bad mode", func(o *Options) { o.Mode = Options{}.Mode + 99 }, "unknown mode"},
		{"zero accesses", func(o *Options) { o.Accesses = 0 }, "positive"},
		{"negative accesses", func(o *Options) { o.Accesses = -5 }, "positive"},
		{"negative cores", func(o *Options) { o.Cores = -1 }, "cores must be non-negative"},
		{"halo with cores", func(o *Options) { o.DesignID, o.Cores = "F", 2 }, "design F is radial (halo)"},
		{"mesh narrower than cores", func(o *Options) { o.Cores = 17 }, "out of range [1,16]"},
		{"negative window", func(o *Options) { o.CPU.Window = -4 }, "CPU.Window must be non-negative"},
		{"blocking above one", func(o *Options) { o.CPU.BlockingProb = 7 }, "CPU.BlockingProb must be in [0,1]"},
		{"negative blocking", func(o *Options) { o.CPU.BlockingProb = -1 }, "CPU.BlockingProb must be in [0,1]"},
		{"NaN blocking", func(o *Options) { o.CPU.BlockingProb = math.NaN() }, "CPU.BlockingProb must be in [0,1]"},
		{"blocking without a window", func(o *Options) { o.CPU.Window, o.CPU.BlockingProb = 0, 0.95 }, "needs a positive CPU.Window"},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mut(&o)
		verr := o.Validate()
		if verr == nil || !strings.Contains(verr.Error(), tc.want) {
			t.Errorf("%s: Validate got %v, want error containing %q", tc.name, verr, tc.want)
			continue
		}
		if _, rerr := Run(o); rerr == nil || rerr.Error() != verr.Error() {
			t.Errorf("%s: Run got %v, Validate got %v; want the same error", tc.name, rerr, verr)
		}
	}
}
