package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
)

// laneEngine is the router engine a lane runs on.
func laneEngine(o Options) string {
	if o.Router == "" {
		return router.DefaultEngine
	}
	return o.Router
}

// laneName names a lane by the axes the matrix spans.
func laneName(o Options) string {
	s := fmt.Sprintf("%s x %d cores, %v/%v on %s", o.DesignID, o.Cores, o.Policy, o.Mode, laneEngine(o))
	if o.Telemetry.Enabled() {
		s += ", probed"
	}
	return s
}

// invarianceLanes is the run-invariance job list, each lane once, where
// Validate accepts it:
//   - A, F, G and H2 at 0, 1, 4 and 8 cores, and B, D and R single-core,
//     each under the directory policy, multicast Fast-LRU and unicast
//     LRU, plus H2 at 2 cores under multicast Fast-LRU;
//   - multicast Promotion on A, B, D, F, G and R;
//   - under every router engine, multicast Fast-LRU, Promotion and LRU on
//     A, F and R, and multicast Fast-LRU on D;
//   - a probed twin of A, F and R under multicast Fast-LRU, right after
//     its plain lane, so a batch carries it among plain ones.
//
// Benchmarks and seeds vary from lane to lane. The (bank stack, cores)
// pairs give more warm states than a Runtime keeps, so its warm LRU
// evicts and rebuilds.
func invarianceLanes() []Options {
	benches := []string{"gcc", "mcf", "lucas", "art", "twolf"}
	var lanes []Options
	seen := map[string]bool{}
	add := func(d string, cores int, p cache.Policy, m cache.Mode, eng string) {
		o := Options{
			DesignID: d, Cores: cores, Policy: p, Mode: m, Router: eng,
			Benchmark: benches[len(lanes)%len(benches)], Accesses: 80, Seed: uint64(len(lanes) + 1),
		}
		if name := laneName(o); !seen[name] && o.Validate() == nil {
			seen[name] = true
			lanes = append(lanes, o)
		}
	}
	schemes := []struct {
		p cache.Policy
		m cache.Mode
	}{{cache.Directory, cache.Multicast}, {cache.FastLRU, cache.Multicast}, {cache.LRU, cache.Unicast}}
	for _, d := range []string{"A", "F", "G", "H2"} {
		for _, cores := range []int{0, 1, 4, 8} {
			for _, s := range schemes {
				add(d, cores, s.p, s.m, "")
			}
		}
	}
	for _, d := range []string{"B", "D", "R"} {
		for _, s := range schemes {
			add(d, 0, s.p, s.m, "")
		}
	}
	add("H2", 2, cache.FastLRU, cache.Multicast, "")
	for _, d := range []string{"A", "B", "D", "F", "G", "R"} {
		add(d, 0, cache.Promotion, cache.Multicast, "")
	}
	for _, eng := range router.Names() {
		for _, d := range []string{"A", "F", "R"} {
			for _, p := range []cache.Policy{cache.FastLRU, cache.Promotion, cache.LRU} {
				add(d, 0, p, cache.Multicast, eng)
			}
		}
		add("D", 0, cache.FastLRU, cache.Multicast, eng)
	}
	for _, d := range []string{"A", "F", "R"} {
		i := slices.IndexFunc(lanes, func(o Options) bool {
			return o.DesignID == d && o.Cores == 0 && o.Policy == cache.FastLRU && o.Mode == cache.Multicast && o.Router == ""
		})
		probed := lanes[i]
		probed.Telemetry = telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}
		lanes = slices.Insert(lanes, i+1, probed)
	}
	return lanes
}

// probeBytes serializes a probed Result's trace JSONL, heatmap and time
// series.
func probeBytes(t *testing.T, r Result) []byte {
	t.Helper()
	tel := r.Telemetry
	if tel == nil || tel.Trace == nil || tel.Heat == nil || tel.Series == nil {
		t.Fatalf("%s: telemetry artifacts missing: %+v", laneName(r.Options), tel)
	}
	var buf bytes.Buffer
	if err := tel.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tel.Heat.Render(&buf)
	tel.Series.Render(&buf)
	return buf.Bytes()
}

// runOn prepares o on rt and runs it on w.
func runOn(rt *Runtime, w *Worker, o Options) (*Instance, Result, error) {
	art, err := rt.prepare(o, nil)
	if err != nil {
		return nil, Result{}, err
	}
	in, err := NewInstance(art, w)
	if err != nil {
		return nil, Result{}, err
	}
	r, err := in.RunToCompletion()
	return in, r, err
}

// invarianceRef is the reference: every lane of invarianceLanes run on a
// fresh Runtime and a fresh Worker. It is computed once per test binary
// and only read after.
var invarianceRef = sync.OnceValues(func() ([]Result, error) {
	lanes := invarianceLanes()
	return sim.ParMap(runtime.GOMAXPROCS(0), len(lanes), func(i int) (Result, error) {
		_, r, err := runOn(new(Runtime), new(Worker), lanes[i])
		return r, err
	})
})

// invCell is what one mode returned for one lane: its Result and the
// text of every error the run or the mode's own checks raised on it.
type invCell struct {
	r    Result
	errs []string
}

// put records a run's Result and error.
func (c *invCell) put(r Result, err error) {
	c.r = r
	if err != nil {
		c.fail("%v", err)
	}
}

// fail records an error the mode raised on the lane.
func (c *invCell) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// invMode is one way core executes a run. run executes every lane and
// records lane i's outcome in cell(col, i), one column per name (a mode
// that runs the list more than once fills several). No two goroutines
// of a mode fill the same cell.
type invMode struct {
	names []string
	run   func(lanes []Options, cell func(col, i int) *invCell)
}

var (
	// runInOrder: core.Run on the default runtime, in list order.
	runInOrder = invMode{[]string{"core.Run in list order"}, func(lanes []Options, cell func(int, int) *invCell) {
		for i, o := range lanes {
			cell(0, i).put(Run(o))
		}
	}}
	engine1 = engineMode(1)
	engine4 = engineMode(4)
	// oneWorker: one Worker carries the list in three seeded orders; after
	// every run each packet and port op is back, and a lane the worker has
	// run before mints no packet.
	oneWorker = invMode{[]string{"one worker, order 1", "one worker, order 2", "one worker, order 3"}, func(lanes []Options, cell func(int, int) *invCell) {
		w := new(Worker)
		for order, seed := range []uint64{1, 2, 3} {
			for _, i := range rand.New(rand.NewPCG(seed, 0)).Perm(len(lanes)) {
				in, r, err := runOn(&std, w, lanes[i])
				c := cell(order, i)
				c.put(r, err)
				if in != nil {
					if st := in.Sys.Net.PoolStats(); st.Live != 0 || in.Fab != nil && in.Fab.Pending() != 0 {
						c.fail("packets or port ops still out after the run")
					} else if order > 0 && st.Allocated != 0 {
						c.fail("a re-run minted %d packets; the worker's free list should serve them all", st.Allocated)
					}
				}
				w.reset()
			}
		}
	}}
	// run8: core.Run from 8 goroutines at once, goroutine g taking lanes
	// g, g+8, ...
	run8 = invMode{[]string{"core.Run from 8 goroutines"}, func(lanes []Options, cell func(int, int) *invCell) {
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(lanes); i += 8 {
					cell(0, i).put(Run(lanes[i]))
				}
			}()
		}
		wg.Wait()
	}}
	// privateRuntimes: two private Runtimes, whose artifacts share no warm
	// image and no topology, each running the list from two goroutines.
	privateRuntimes = invMode{[]string{"private runtime 0", "private runtime 1"}, func(lanes []Options, cell func(int, int) *invCell) {
		rts := [2]*Runtime{new(Runtime), new(Runtime)}
		for i, o := range lanes {
			a, errA := rts[0].prepare(o, nil)
			b, errB := rts[1].prepare(o, nil)
			if errA != nil || errB != nil {
				cell(0, i).fail("prepare: %v, %v", errA, errB)
			} else if a.WarmImg == b.WarmImg || a.Topo == b.Topo {
				cell(0, i).fail("shares a warm image or a topology with private runtime 1")
			}
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g / 2; i < len(lanes); i += 2 {
					cell(g%2, i).put(rts[g%2].Run(lanes[i]))
				}
			}()
		}
		wg.Wait()
	}}
	allModes = []invMode{runInOrder, engine1, engine4, oneWorker, run8, privateRuntimes}
)

// engineMode: NewEngine(workers).RunAll over the whole list at once. A
// batch that fails fails every lane.
func engineMode(workers int) invMode {
	return invMode{[]string{fmt.Sprintf("NewEngine(%d)", workers)}, func(lanes []Options, cell func(int, int) *invCell) {
		rs, _, err := NewEngine(workers).RunAll(lanes)
		for i := range lanes {
			if err != nil {
				cell(0, i).fail("RunAll: %v", err)
			} else {
				cell(0, i).r = rs[i]
			}
		}
	}}
}

// invarianceRuns is the matrix: every mode of allModes run over the whole
// of invarianceLanes, all modes at once, keyed by column name. It is
// computed once per test binary, after the reference, and only read
// after, so every invariance test reads the same runs.
var invarianceRuns = sync.OnceValue(func() map[string][]invCell {
	lanes := invarianceLanes()
	cols := map[string][]invCell{}
	for _, m := range allModes {
		for _, name := range m.names {
			cols[name] = make([]invCell, len(lanes))
		}
	}
	var wg sync.WaitGroup
	for _, m := range allModes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.run(lanes, func(col, i int) *invCell { return &cols[m.names[col]][i] })
		}()
	}
	wg.Wait()
	return cols
})

// checkInvariance reads the matrix's runs of the lanes of
// invarianceLanes that keep accepts (all of them if keep is nil) in the
// columns of modes, reports every error recorded there, and requires
// each run to return the reference Result bit for bit
// (reflect.DeepEqual on the whole Result).
//
// Every mode has run over the whole list before anything is compared,
// and the probed lanes' trace, heatmap and series are serialized only
// then, so a Result that still points into a recycled arena shows.
// Plain lanes carry no telemetry, and a probed lane with its probes
// cleared equals its plain twin.
func checkInvariance(t *testing.T, keep func(Options) bool, modes ...invMode) {
	t.Helper()
	ref, err := invarianceRef()
	if err != nil {
		t.Fatal(err)
	}
	runs := invarianceRuns()
	var names []string
	for _, m := range modes {
		names = append(names, m.names...)
	}
	all := invarianceLanes()
	kept := 0
	for i, o := range all {
		if keep != nil && !keep(o) {
			continue
		}
		kept++
		for _, name := range names {
			c := runs[name][i]
			for _, e := range c.errs {
				t.Errorf("%s: %s: %s", name, laneName(o), e)
			}
			if !reflect.DeepEqual(c.r, ref[i]) {
				t.Errorf("%s: %s: Result differs from the fresh reference", name, laneName(o))
			}
		}
		if !o.Telemetry.Enabled() {
			if ref[i].Telemetry != nil {
				t.Errorf("%s: a plain lane grew telemetry", laneName(o))
			}
			continue
		}
		probes := probeBytes(t, ref[i])
		for _, name := range names {
			if !bytes.Equal(probeBytes(t, runs[name][i].r), probes) {
				t.Errorf("%s: %s: trace, heatmap or series differs from the fresh reference", name, laneName(o))
			}
		}
		plain := o
		plain.Telemetry = telemetry.Config{}
		cleared := ref[i]
		cleared.Options.Telemetry, cleared.Telemetry = telemetry.Config{}, nil
		if j := slices.Index(all, plain); j < 0 || !reflect.DeepEqual(cleared, ref[j]) {
			t.Errorf("%s: probing perturbed the run: with its probes cleared it differs from its plain twin", laneName(o))
		}
	}
	if kept == 0 {
		t.Fatal("no lane of the job list is selected")
	}
}

// TestRunInvariance: a run's Result does not depend on how core executes
// it. Every lane of invarianceLanes runs first on a fresh Runtime and a
// fresh Worker; that Result is the reference, and every other way to run
// the lane must return it bit for bit, as checkInvariance compares:
//   - core.Run on the default runtime, in list order;
//   - NewEngine(1) and NewEngine(4) over the whole list;
//   - one Worker carrying the list in three seeded orders, with every
//     packet and port op back after each run, and no packet minted by a
//     lane the worker has run before;
//   - core.Run from 8 goroutines at once, goroutine g taking lanes g,
//     g+8, ...;
//   - two private Runtimes, which share no warm image and no topology,
//     each running the whole list from two goroutines.
func TestRunInvariance(t *testing.T) {
	lanes := invarianceLanes()
	if len(lanes) != 78 {
		t.Fatalf("the job list holds %d lanes, want 78: the 36-run mix, 9 of B, D and R, H2 at 2 cores, 6 under Promotion, 23 more across the engines and 3 probed twins", len(lanes))
	}
	rt, pc := new(Runtime), NewPrepCache()
	for _, o := range lanes {
		mustPrepareOn(t, rt, o, pc)
	}
	if n := len(pc.warms); n < 2*maxSharedWarm {
		t.Fatalf("the lanes use %d warm states; want at least %d, so a runtime's warm LRU evicts", n, 2*maxSharedWarm)
	}
	checkInvariance(t, nil, allModes...)
}

// The tests below each read one slice of the matrix's runs in some of
// its columns, against the same reference and by the same equality, so
// a regression names the execution path or the lanes it touches. They
// run nothing of their own.

// isAny reports whether s is one of set.
func isAny(s string, set ...string) bool { return slices.Contains(set, s) }

// TestRunDeterminism: multicast Fast-LRU on A, plain and probed, on every
// engine, in every column of the matrix.
func TestRunDeterminism(t *testing.T) {
	checkInvariance(t, func(o Options) bool {
		return o.DesignID == "A" && o.Cores == 0 && o.Policy == cache.FastLRU && o.Mode == cache.Multicast
	}, allModes...)
}

// TestParallelEngineDeterminism: each of A, B and F crossed with each
// replacement policy, sequential and on four workers.
func TestParallelEngineDeterminism(t *testing.T) {
	for _, id := range []string{"A", "B", "F"} {
		for _, pol := range []cache.Policy{cache.Promotion, cache.LRU, cache.FastLRU} {
			t.Run(fmt.Sprintf("%s-%v", id, pol), func(t *testing.T) {
				checkInvariance(t, func(o Options) bool {
					return o.DesignID == id && o.Cores == 0 && o.Policy == pol && !o.Telemetry.Enabled()
				}, engine1, engine4)
			})
		}
	}
}

// TestTelemetryDeterministicAcrossWorkers: the probed lanes next to their
// plain twins, sequential and on four workers; probe bytes match, and
// probing perturbs nothing.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	checkInvariance(t, func(o Options) bool {
		return isAny(o.DesignID, "A", "F", "R") && o.Cores == 0 && o.Policy == cache.FastLRU && o.Mode == cache.Multicast && o.Router == ""
	}, engine1, engine4)
}

// TestEngineRunAllMatchesDirectRuns: every lane of A on a four-worker
// engine.
func TestEngineRunAllMatchesDirectRuns(t *testing.T) {
	checkInvariance(t, func(o Options) bool { return o.DesignID == "A" }, engine4)
}

// TestEngineBitIdentity: A, F and R under every single-core policy and
// router engine, on the engine at one and four workers.
func TestEngineBitIdentity(t *testing.T) {
	checkInvariance(t, func(o Options) bool {
		return isAny(o.DesignID, "A", "F", "R") && o.Cores == 0 && o.Policy != cache.Directory && !o.Telemetry.Enabled()
	}, engine1, engine4)
}

// TestEngineProbedLaneInMixedBatch: the default-engine single-core lanes
// of A, F and R, each probed lane among plain ones in one batch.
func TestEngineProbedLaneInMixedBatch(t *testing.T) {
	checkInvariance(t, func(o Options) bool {
		return isAny(o.DesignID, "A", "F", "R") && o.Cores == 0 && o.Router == ""
	}, engine1, engine4)
}

// TestRunMatchesFreshArena: core.Run, on recycled arenas and shared warm
// images, over the whole list.
func TestRunMatchesFreshArena(t *testing.T) {
	checkInvariance(t, nil, runInOrder)
}

// TestRunConcurrent: core.Run from 8 goroutines over the whole list.
func TestRunConcurrent(t *testing.T) {
	checkInvariance(t, nil, run8)
}

// inMix reports whether o is one of the 36-run mix: A, F, G and H2 at 0,
// 1, 4 and 8 cores where the grid hosts them, under the directory
// policy, multicast Fast-LRU and unicast LRU.
func inMix(o Options) bool {
	return isAny(o.DesignID, "A", "F", "G", "H2") && o.Cores != 2 && o.Router == "" && !o.Telemetry.Enabled() &&
		(o.Policy == cache.Directory || o.Policy == cache.FastLRU && o.Mode == cache.Multicast || o.Policy == cache.LRU && o.Mode == cache.Unicast)
}

// TestArenaCarriesAcrossDesigns: the lanes outside the mix — B, D and R,
// Promotion, every router engine, H2 at 2 cores and the probed twins — as
// one worker carrying the whole list in three orders ran them, with the
// pool checks.
func TestArenaCarriesAcrossDesigns(t *testing.T) {
	checkInvariance(t, func(o Options) bool { return !inMix(o) }, oneWorker)
}

// TestRunShuffledOnOneArena: the 36-run mix as one worker carrying the
// whole list in three orders ran it.
func TestRunShuffledOnOneArena(t *testing.T) {
	if n := len(slices.DeleteFunc(invarianceLanes(), func(o Options) bool { return !inMix(o) })); n != 36 {
		t.Fatalf("the mix holds %d runs, want 36 (A and H2 at 0, 1, 4 and 8 cores, F at 0, G at 0, 1 and 4)", n)
	}
	checkInvariance(t, inMix, oneWorker)
}

// TestRouterEnginesDeterministicAcrossWorkers: each router engine's
// plain single-core lanes, sequential and on four workers.
func TestRouterEnginesDeterministicAcrossWorkers(t *testing.T) {
	for _, eng := range router.Names() {
		t.Run(eng, func(t *testing.T) {
			checkInvariance(t, func(o Options) bool {
				return laneEngine(o) == eng && o.Cores == 0 && !o.Telemetry.Enabled()
			}, engine1, engine4)
		})
	}
}

// TestCMPPrepCacheMatchesPlainRun: the multi-core H2 lanes, whose engine
// path clones the merged CMP warm table, on the engine at one and four
// workers.
func TestCMPPrepCacheMatchesPlainRun(t *testing.T) {
	checkInvariance(t, func(o Options) bool { return o.DesignID == "H2" && o.Cores > 0 }, engine1, engine4)
}

// TestRuntimesShareNothing: two private runtimes over the whole list.
func TestRuntimesShareNothing(t *testing.T) {
	checkInvariance(t, nil, privateRuntimes)
}
