package cpu

import (
	"fmt"
	"slices"
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

func testDesign() config.Design {
	banks := make([]bank.Spec, 4)
	for i := range banks {
		banks[i] = bank.Spec{SizeKB: 64, Ways: 1}
	}
	return config.Design{
		ID: "T", Topology: "mesh",
		Params: topology.Params{W: 4, H: 4, CoreX: 2, MemX: 2,
			HorizDelay: 1, VertDelay: []int{1}},
		Banks: banks, Router: router.DefaultConfig(),
	}
}

// runBench runs n accesses of benchmark name and returns the result and
// the benchmark's profile.
func runBench(t *testing.T, name string, n int, seed uint64) (Result, trace.Profile) {
	t.Helper()
	prof, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := cache.MustNew(k, testDesign(), cache.FastLRU, cache.Multicast)
	gen := trace.NewSynthetic(prof, sys.AM, seed)
	sys.Warm(gen.WarmBlocks(sys.Design.Ways()))
	core := new(Core).Renew(k, sys, prof, gen, n, DefaultConfig())
	res, err := run(core)
	if err != nil {
		t.Fatal(err)
	}
	return res, prof
}

// run starts c and runs its kernel to idle.
func run(c *Core) (Result, error) {
	c.Start()
	if _, idle := c.k.Run(1 << 30); !idle {
		return Result{}, fmt.Errorf("cpu: run did not complete (%d/%d accesses)", c.completed, c.n)
	}
	return c.Result()
}

func TestIPCBelowPerfect(t *testing.T) {
	res, prof := runBench(t, "gcc", 2000, 1)
	if res.IPC() <= 0 {
		t.Fatal("IPC must be positive")
	}
	if res.IPC() >= prof.PerfectIPC {
		t.Fatalf("IPC %.3f cannot exceed perfect %.3f", res.IPC(), prof.PerfectIPC)
	}
}

func TestLowAccessRateNearsPerfectIPC(t *testing.T) {
	// mesa touches L2 every ~333 instructions: stalls barely matter.
	res, prof := runBench(t, "mesa", 800, 1)
	if got := res.IPC() / prof.PerfectIPC; got < 0.80 {
		t.Fatalf("mesa IPC/perfect = %.3f, want > 0.80", got)
	}
}

func TestHighAccessRateSuffers(t *testing.T) {
	// mcf touches L2 every ~5.5 instructions with a high miss rate.
	mesa, mesaProf := runBench(t, "mesa", 800, 1)
	mcf, mcfProf := runBench(t, "mcf", 2000, 1)
	if mcf.IPC()/mcfProf.PerfectIPC >= mesa.IPC()/mesaProf.PerfectIPC {
		t.Fatalf("mcf relative IPC (%.3f) should be below mesa's (%.3f)",
			mcf.IPC()/mcfProf.PerfectIPC, mesa.IPC()/mesaProf.PerfectIPC)
	}
}

func TestInstructionAccounting(t *testing.T) {
	prof, _ := trace.ProfileByName("vpr")
	k := sim.NewKernel()
	sys := cache.MustNew(k, testDesign(), cache.FastLRU, cache.Multicast)
	gen := trace.NewSynthetic(prof, sys.AM, 3)
	sys.Warm(gen.WarmBlocks(sys.Design.Ways()))
	var wantInstr int64
	for _, a := range trace.Take(trace.NewSynthetic(prof, sys.AM, 3), 500) {
		wantInstr += a.Gap
	}
	core := new(Core).Renew(k, sys, prof, gen, 500, DefaultConfig())
	res, err := run(core)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != wantInstr {
		t.Fatalf("instructions = %d, want %d", res.Instructions, wantInstr)
	}
	if res.Cycles <= 0 {
		t.Fatal("cycles must be positive")
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := runBench(t, "twolf", 700, 9)
	b, _ := runBench(t, "twolf", 700, 9)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	// A window of 1 serializes everything; IPC must drop versus 8.
	prof, _ := trace.ProfileByName("mcf")
	run := func(window int) float64 {
		k := sim.NewKernel()
		sys := cache.MustNew(k, testDesign(), cache.FastLRU, cache.Multicast)
		gen := trace.NewSynthetic(prof, sys.AM, 4)
		sys.Warm(gen.WarmBlocks(sys.Design.Ways()))
		cfg := DefaultConfig()
		cfg.Window = window
		core := new(Core).Renew(k, sys, prof, gen, 1200, cfg)
		res, err := run(core)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC()
	}
	if w1, w8 := run(1), run(8); w1 >= w8 {
		t.Fatalf("window 1 IPC %.3f should be below window 8 IPC %.3f", w1, w8)
	}
}

func TestBlockingProbSlowsCore(t *testing.T) {
	prof, _ := trace.ProfileByName("art")
	run := func(p float64) float64 {
		k := sim.NewKernel()
		sys := cache.MustNew(k, testDesign(), cache.FastLRU, cache.Multicast)
		gen := trace.NewSynthetic(prof, sys.AM, 4)
		sys.Warm(gen.WarmBlocks(sys.Design.Ways()))
		cfg := DefaultConfig()
		cfg.BlockingProb = p
		core := new(Core).Renew(k, sys, prof, gen, 1500, cfg)
		res, err := run(core)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC()
	}
	if all, none := run(1.0), run(0.0); all >= none {
		t.Fatalf("fully blocking IPC %.3f should be below non-blocking %.3f", all, none)
	}
}

func TestEmptyAccessListPanics(t *testing.T) {
	prof, _ := trace.ProfileByName("gcc")
	k := sim.NewKernel()
	sys := cache.MustNew(k, testDesign(), cache.FastLRU, cache.Multicast)
	core := new(Core).Renew(k, sys, prof, trace.NewSynthetic(prof, sys.AM, 1), 0, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.Start()
}

// echoL2 answers every request a fixed latency after its submission, in
// submission order, and records what it was asked. Before answering it
// notes whether the core was blocked on that request (a dependent load)
// or stalled on a full window, so a test can show both paths ran.
type echoL2 struct {
	k    *sim.Kernel
	kid  int
	lat  int64
	core *Core
	got  []trace.Access
	due  []*cache.Request
	at   []int64

	blocking, full int
}

func newEchoL2(k *sim.Kernel, lat int64) *echoL2 {
	e := &echoL2{k: k, lat: lat}
	e.kid = k.Register(e)
	return e
}

func (e *echoL2) Submit(r *cache.Request) {
	e.got = append(e.got, trace.Access{Addr: r.Addr, Write: r.Write})
	e.due = append(e.due, r)
	e.at = append(e.at, e.k.Now()+e.lat)
	e.k.WakeAt(e.k.Now()+e.lat, e.kid)
}

func (e *echoL2) Tick(now int64) bool {
	for len(e.due) > 0 && e.at[0] <= now {
		r := e.due[0]
		e.due, e.at = e.due[1:], e.at[1:]
		if e.core.blockedOn == r {
			e.blocking++
		}
		if e.core.stalledFull {
			e.full++
		}
		r.Done(r, now)
	}
	return false
}

// TestStreamedCoreIssuesTake: a core drawing from a generator issues
// exactly the accesses trace.Take drains from the same generator, in
// order — addresses, write bits and, through the instruction count, the
// gaps — with dependent loads and a full window both exercised. Each
// access is drawn once: a core that drew again while scheduling would
// skip accesses. A core renewed in place issues the same stream again.
func TestStreamedCoreIssuesTake(t *testing.T) {
	prof, _ := trace.ProfileByName("mcf")
	am := trace.AddrMap{Columns: 4, Sets: 64}
	const n = 600
	want := trace.Take(trace.NewSynthetic(prof, am, 5), n)
	var wantInstr int64
	for i := range want {
		wantInstr += want[i].Gap
		want[i].Gap = 0 // the L2 sees no gap
	}
	cfg := Config{Window: 2, BlockingProb: 0.3, Seed: 5}
	var c Core
	var first Result
	for round := 0; round < 2; round++ {
		k := sim.NewKernel()
		l2 := newEchoL2(k, 40)
		l2.core = c.Renew(k, l2, prof, trace.NewSynthetic(prof, am, 5), n, cfg)
		res, err := run(&c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(l2.got, want) {
			i := 0
			for i < min(len(l2.got), len(want)) && l2.got[i] == want[i] {
				i++
			}
			t.Fatalf("round %d: core issued %d accesses diverging from trace.Take at %d", round, len(l2.got), i)
		}
		if res.Instructions != wantInstr {
			t.Fatalf("round %d: %d instructions, want %d", round, res.Instructions, wantInstr)
		}
		if l2.blocking == 0 || l2.full == 0 {
			t.Fatalf("round %d: %d blocking loads and %d full-window stalls, want both exercised", round, l2.blocking, l2.full)
		}
		if round == 0 {
			first = res
		} else if res != first {
			t.Fatalf("renewed core gave %+v, fresh core %+v", res, first)
		}
	}
}
