package sim

import (
	"slices"
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

// TestKernelDeferRunsAfterTicks: a DeferIncr commit made while ticking
// stays invisible to every later component of the same cycle and lands
// once the cycle's ticks are done.
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

// TestKernelWheelHorizon: a wake-up up to wheelSlots cycles ahead is a
// bit in the wheel, a farther one an event-heap entry, and either ticks
// exactly once, on its cycle — from cycle 0 and from a start whose slot
// makes the target wrap past the end of the wheel.
func TestKernelWheelHorizon(t *testing.T) {
	for _, start := range []int64{0, wheelSlots - 3} {
		for _, d := range []int64{1, wheelSlots - 1, wheelSlots, wheelSlots + 1, 1000 * wheelSlots} {
			k := NewKernel()
			c := &counter{left: 1}
			c.id = k.Register(c)
			k.now = start
			k.WakeAt(start+d, c.id)
			if far := len(k.events) == 1; far != (d > wheelSlots) {
				t.Fatalf("start %d, wake +%d: on the heap = %v", start, d, far)
			}
			if !k.Step() || k.Now() != start+d {
				t.Fatalf("start %d, wake +%d: stepped to %d", start, d, k.Now())
			}
			if k.Step() || len(c.ticks) != 1 || c.ticks[0] != start+d {
				t.Fatalf("start %d, wake +%d: ticks %v", start, d, c.ticks)
			}
		}
	}
}

// TestKernelFarEventJoinsWheelCycle: a far event that comes into the
// wheel's range lands on a cycle that activations and near wake-ups
// share. Every id due then ticks once, in ascending order, the far event
// and a near wake-up of the same id included, and a DeferIncr made by
// the first of them commits only after the last.
func TestKernelFarEventJoinsWheelCycle(t *testing.T) {
	k := NewKernel()
	const at = 3*wheelSlots + 5
	var order []int
	ctr, seen := 0, -1
	tick := func(id int, f func()) {
		k.Register(&fnComp{f: func(int64) bool {
			order = append(order, id)
			if f != nil {
				f()
			}
			return false
		}})
	}
	tick(0, func() { // the driver, one cycle ahead
		k.Activate(1)
		k.WakeAt(at, 2)
		k.WakeAt(at, 3)
	})
	tick(1, func() { k.DeferIncr(&ctr) })
	tick(2, nil)
	tick(3, func() { seen = ctr })
	k.WakeAt(at, 3)
	k.WakeAt(at-1, 0)
	if len(k.events) != 2 {
		t.Fatalf("%d far events queued, want 2", len(k.events))
	}
	k.Step()
	order = order[:0]
	if !k.Step() || k.Now() != at {
		t.Fatalf("stepped to %d, want %d", k.Now(), at)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("cycle %d ticked %v, want [1 2 3]", at, order)
	}
	if seen != 0 || ctr != 1 {
		t.Fatalf("deferred increment seen as %d during the cycle, %d after; want 0 and 1", seen, ctr)
	}
	if !k.Idle() {
		t.Fatal("kernel not idle after the last scheduled cycle")
	}
}

// TestKernelIdle: the kernel is idle only when neither the wheel nor the
// event heap holds a wake-up.
func TestKernelIdle(t *testing.T) {
	k := NewKernel()
	c := &counter{}
	c.id = k.Register(c)
	if !k.Idle() {
		t.Fatal("a new kernel is not idle")
	}
	for _, d := range []int64{1, wheelSlots, wheelSlots + 1} {
		c.left = 1
		k.WakeAt(k.Now()+d, c.id)
		if k.Idle() {
			t.Fatalf("idle with a wake-up %d cycles ahead", d)
		}
		k.Step()
		if !k.Idle() {
			t.Fatalf("not idle after the wake-up %d cycles ahead ticked", d)
		}
	}
	c.left = 1
	k.WakeAt(k.Now()+2*wheelSlots, c.id)
	k.Activate(c.id)
	k.Step()
	if k.Idle() {
		t.Fatal("idle with a far wake-up still queued")
	}
	k.Step()
	if !k.Idle() || k.Step() {
		t.Fatal("not idle after every wake-up ticked")
	}
}

// refKernel is the scheduling contract in its most direct form: a set of
// due ids per cycle, the earliest cycle ticked next, in id order.
type refKernel struct {
	now int64
	due map[int64]map[int]bool
}

func (r *refKernel) wake(t int64, id int) {
	t = max(t, r.now+1)
	if r.due[t] == nil {
		r.due[t] = map[int]bool{}
	}
	r.due[t][id] = true
}

// TestKernelMatchesReference wraps the wheel hundreds of times: 100
// components whose ticks wake one another at seeded distances — next
// cycle, inside the horizon, at it, just past it, far beyond it, and in
// the past — and sometimes stay active. The kernel must tick the same
// ids on the same cycles, in the same order, as a per-cycle set of due
// ids.
func TestKernelMatchesReference(t *testing.T) {
	const n, steps = 100, 20000
	dists := []int64{1, 1, 2, 3, 7, wheelSlots - 1, wheelSlots, wheelSlots + 1, 3 * wheelSlots, 0, -5}
	k := NewKernel()
	ref := &refKernel{due: map[int64]map[int]bool{}}
	type tick struct {
		at int64
		id int
	}
	var got, want []tick
	rng := NewRNG(11)
	// Each tick draws its decisions once and applies them to both
	// schedulers, so the two see the same wake-ups.
	for i := 0; i < n; i++ {
		id := i
		k.Register(&fnComp{f: func(now int64) bool {
			got = append(got, tick{now, id})
			ref.now = now
			other, d := rng.Intn(n), dists[rng.Intn(len(dists))]
			k.WakeAt(now+d, other)
			ref.wake(now+d, other)
			again := rng.Intn(50) == 0
			if again {
				ref.wake(now+1, id)
			}
			return again
		}})
	}
	for i := 0; i < n; i += 5 {
		k.WakeAt(int64(i), i)
		ref.wake(int64(i), i)
	}
	for s := 0; s < steps; s++ {
		from := len(want)
		if !k.Step() {
			t.Fatalf("step %d: kernel idle with %d reference cycles due", s, len(ref.due))
		}
		next := int64(-1)
		for at := range ref.due {
			if next < 0 || at < next {
				next = at
			}
		}
		for id := 0; id < n; id++ {
			if ref.due[next][id] {
				want = append(want, tick{next, id})
			}
		}
		delete(ref.due, next)
		if !slices.Equal(got[from:], want[from:]) {
			t.Fatalf("step %d: kernel ticked %v, reference %v", s, got[from:], want[from:])
		}
	}
	if k.Now() < 100*wheelSlots {
		t.Fatalf("reached cycle %d: the wheel wrapped fewer than 100 times", k.Now())
	}
	t.Logf("%d steps, %d ticks, %d cycles", steps, len(got), k.Now())
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
