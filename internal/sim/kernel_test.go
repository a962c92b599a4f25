package sim

import (
	"testing"
	"testing/quick"
)

// counter ticks n times then parks.
type counter struct {
	k     *Kernel
	id    int
	left  int
	ticks []int64
}

func (c *counter) Tick(now int64) bool {
	c.ticks = append(c.ticks, now)
	c.left--
	return c.left > 0
}

func TestKernelTicksInOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	mk := func(tag int) int {
		c := &fnComp{f: func(now int64) bool {
			order = append(order, tag)
			return false
		}}
		return k.Register(c)
	}
	a := mk(0)
	b := mk(1)
	c := mk(2)
	// Activate out of order; ticks must happen in id order.
	k.Activate(c)
	k.Activate(a)
	k.Activate(b)
	if !k.Step() {
		t.Fatal("expected a step")
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("tick order = %v, want [0 1 2]", order)
	}
	if got := k.Now(); got != 1 {
		t.Fatalf("Now = %d, want 1", got)
	}
}

type fnComp struct{ f func(int64) bool }

func (c *fnComp) Tick(now int64) bool { return c.f(now) }

func TestKernelSelfReschedule(t *testing.T) {
	k := NewKernel()
	c := &counter{left: 5}
	c.id = k.Register(c)
	k.Activate(c.id)
	cycles, idle := k.Run(100)
	if !idle {
		t.Fatal("kernel should go idle")
	}
	if cycles != 5 {
		t.Fatalf("cycles = %d, want 5", cycles)
	}
	want := []int64{1, 2, 3, 4, 5}
	for i, w := range want {
		if c.ticks[i] != w {
			t.Fatalf("ticks = %v, want %v", c.ticks, want)
		}
	}
}

func TestKernelTimeSkip(t *testing.T) {
	k := NewKernel()
	c := &counter{left: 1}
	c.id = k.Register(c)
	k.WakeAt(1000, c.id)
	if !k.Step() {
		t.Fatal("expected a step")
	}
	if k.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000 (time skip)", k.Now())
	}
	if len(c.ticks) != 1 || c.ticks[0] != 1000 {
		t.Fatalf("ticks = %v, want [1000]", c.ticks)
	}
	if k.Step() {
		t.Fatal("kernel should be idle after the only event")
	}
}

func TestKernelWakeAtPastActivatesNext(t *testing.T) {
	k := NewKernel()
	c := &counter{left: 1}
	c.id = k.Register(c)
	k.Activate(c.id)
	k.Step() // now = 1
	k.WakeAt(0, c.id)
	c.left = 1
	if !k.Step() {
		t.Fatal("expected a step")
	}
	if k.Now() != 2 {
		t.Fatalf("Now = %d, want 2", k.Now())
	}
}

func TestKernelDuplicateActivationCoalesces(t *testing.T) {
	k := NewKernel()
	c := &counter{left: 10}
	c.id = k.Register(c)
	k.Activate(c.id)
	k.Activate(c.id)
	k.WakeAt(1, c.id)
	k.Step()
	if len(c.ticks) != 1 {
		t.Fatalf("component ticked %d times in one cycle, want 1", len(c.ticks))
	}
}

// TestKernelDeferRunsAfterTicks: a DeferIncr commit made while ticking
// stays invisible to every later component of the same cycle and lands
// once the cycle's ticks are done.
// TestKernelOrderAcrossBitmapWords drives the due-id bitmap past one
// word: 200 components activated in a scrambled order tick in ascending
// id order, a component registered after the first Step (in a word the
// bitmap did not have yet) joins that order, and an id that is both
// activated and woken by an event in the same cycle is ticked once.
func TestKernelOrderAcrossBitmapWords(t *testing.T) {
	k := NewKernel()
	var order []int
	mk := func() int {
		id := len(k.comps)
		return k.Register(&fnComp{f: func(int64) bool {
			order = append(order, id)
			return false
		}})
	}
	const n = 200
	for i := 0; i < n; i++ {
		mk()
	}
	wantAscending := func(ids ...int) {
		t.Helper()
		if len(order) != len(ids) {
			t.Fatalf("ticked %d components (%v), want %d", len(order), order, len(ids))
		}
		for i, id := range ids {
			if order[i] != id {
				t.Fatalf("tick order = %v, want %v", order, ids)
			}
		}
		order = order[:0]
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
		k.Activate((i * 77) % n) // 77 is coprime to 200: a permutation
	}
	k.Step()
	wantAscending(all...)

	late := mk()
	for len(k.comps) <= 256 { // push the last id into a fifth word
		late = mk()
	}
	k.Activate(late)
	k.Activate(130)
	k.WakeAt(k.Now()+1, 130) // activation and event land on the same cycle
	k.WakeAt(k.Now()+1, 3)
	k.WakeAt(k.Now()+2, 64)
	k.Step()
	wantAscending(3, 130, late)
	k.Step()
	wantAscending(64)
	if k.Step() {
		t.Fatal("kernel should be idle")
	}
}

func TestKernelDeferRunsAfterTicks(t *testing.T) {
	k := NewKernel()
	ctr, seenByB := 0, -1
	a := k.Register(&fnComp{f: func(now int64) bool {
		k.DeferIncr(&ctr)
		return false
	}})
	b := k.Register(&fnComp{f: func(now int64) bool {
		seenByB = ctr
		return false
	}})
	k.Activate(a)
	k.Activate(b)
	k.Step()
	if seenByB != 0 {
		t.Fatalf("later component saw ctr = %d during the cycle, want 0", seenByB)
	}
	if ctr != 1 {
		t.Fatalf("ctr = %d after the cycle, want 1", ctr)
	}
}

func TestKernelEventOrderingStable(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 8; i++ {
		tag := i
		id := k.Register(&fnComp{f: func(now int64) bool {
			order = append(order, tag)
			return false
		}})
		k.WakeAt(7, id)
	}
	k.Step()
	for i := 0; i < 8; i++ {
		if order[i] != i {
			t.Fatalf("same-cycle events out of id order: %v", order)
		}
	}
}

func TestKernelRunBudget(t *testing.T) {
	k := NewKernel()
	c := &counter{left: 1 << 30}
	c.id = k.Register(c)
	k.Activate(c.id)
	cycles, idle := k.Run(50)
	if idle {
		t.Fatal("should not go idle")
	}
	if cycles != 50 {
		t.Fatalf("cycles = %d, want 50", cycles)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
