// Package sim provides a deterministic, activity-driven cycle simulation
// kernel. Components register with a Kernel and are ticked only on cycles
// where they have work; cycles with no scheduled component are skipped:
// Step finds the next cycle that has one in a bitmap of busy timing-wheel
// slots, or in the heap of far wake-ups, and jumps the clock straight
// there. This keeps long memory latencies (hundreds of idle cycles) free.
//
// Determinism: components are ticked in ascending registration order, flits
// carry arrival stamps so a flit moves at most one hop per cycle regardless
// of tick order, and all randomness flows from the seeded RNG in this
// package.
//
// Concurrency: a Kernel is single-threaded — one goroutine drives Step/Run
// and every component it ticks. Kernels hold no package-level state, so
// independent Kernels on different goroutines (see ParMap) share nothing.
//
// Scheduling is a hashed timing wheel (Varghese & Lauck, SOSP 1987): each
// of wheelSlots slots holds one bitmap over component ids for the cycle
// congruent to it, so Activate, and WakeAt within wheelSlots cycles, set
// one bit and mark the slot busy. Only farther wake-ups (memory latency,
// telemetry sampling) go through the event heap, a typed slice with no
// interface boxing. Deferred credit returns go through DeferIncr, which
// records a pointer instead of capturing a closure. Nothing in Step
// allocates once the heap and the deferred list reach their high-water
// marks; the root-level allocation guards pin this.
package sim

import (
	"math"
	"math/bits"
)

// Component is anything the kernel can tick once per active cycle.
// Tick returns true if the component wants to be ticked on the next cycle
// as well (it still has queued work); returning false parks it until it is
// re-activated by an event or by another component.
type Component interface {
	Tick(now int64) bool
}

// wheelSlots is the timing wheel's horizon in cycles: a wake-up at most
// this far ahead is one bit in the wheel, a farther one an event-heap
// push. It is a power of two, and 64 so the busy-slot set is one word.
// Router hops and bank accesses wake well inside it; memory latency, long
// issue gaps and telemetry periods fall beyond it (DESIGN.md §3d).
const (
	wheelSlots = 64
	wheelMask  = wheelSlots - 1
)

// event wakes a component at a fixed cycle beyond the wheel's horizon.
type event struct {
	at int64
	id int
}

// eventHeap is a binary min-heap ordered by cycle. It is maintained with
// inline sift operations rather than container/heap so pushes and pops
// move typed values, never boxing through `any`. Events of one cycle pop
// in no particular order; Step merges them into a bitmap, which ticks
// them in id order.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].at < s[small].at {
			small = l
		}
		if r < n && s[r].at < s[small].at {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Kernel drives registered components cycle by cycle.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now   int64
	comps []Component
	// wheel[w*wheelSlots+s] is word w of slot s's id bitmap; slot s holds
	// the ids due at the one cycle in (now, now+wheelSlots] congruent to s
	// modulo wheelSlots. busy has bit s set while slot s is non-empty.
	wheel  []uint64
	busy   uint64
	due    []uint64  // the cycle being ticked, one bit per comp; zero between Steps
	events eventHeap // wake-ups more than wheelSlots cycles ahead
	incrs  []*int    // deferred counter increments (see DeferIncr)
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Register adds a component and returns its id. Ids order ticking within a
// cycle; register in a stable order for reproducible runs.
func (k *Kernel) Register(c Component) int {
	id := len(k.comps)
	k.comps = append(k.comps, c)
	if id>>6 >= len(k.due) {
		k.due = append(k.due, 0)
		k.wheel = append(k.wheel, make([]uint64, wheelSlots)...)
	}
	return id
}

// Now returns the current cycle.
func (k *Kernel) Now() int64 {
	return k.now
}

// Activate schedules component id to tick on the next cycle. Safe to call
// from inside a Tick. Duplicate activations coalesce.
func (k *Kernel) Activate(id int) {
	k.schedule(k.now+1, id)
}

// WakeAt schedules component id to tick at cycle t. If t is not in the
// future the component is activated for the next cycle instead.
func (k *Kernel) WakeAt(t int64, id int) {
	if t <= k.now {
		t = k.now + 1
	} else if t-k.now > wheelSlots {
		k.events.push(event{at: t, id: id})
		return
	}
	k.schedule(t, id)
}

// schedule sets id's bit in the slot of cycle t, which must lie in
// (now, now+wheelSlots].
func (k *Kernel) schedule(t int64, id int) {
	s := int(t) & wheelMask
	k.wheel[(id>>6)*wheelSlots+s] |= 1 << (id & 63)
	k.busy |= 1 << s
}

// DeferIncr increments *ctr after all components have ticked in the
// current cycle, so the new value only becomes visible on the following
// cycle — credit returns and similar end-of-cycle counter commits. It
// records a pointer, never a closure, so the hot path allocates nothing.
func (k *Kernel) DeferIncr(ctr *int) {
	k.incrs = append(k.incrs, ctr)
}

// Idle reports whether no component is scheduled and no event is pending.
func (k *Kernel) Idle() bool {
	return k.busy == 0 && len(k.events) == 0
}

// Step advances the clock to the next cycle with work and ticks every
// scheduled component in id order. It returns false when the kernel is
// idle (nothing will ever run again without external scheduling).
func (k *Kernel) Step() bool {
	if k.Idle() {
		return false
	}
	// The next cycle with work: the first busy slot at or after now+1
	// (rotating the busy set puts now+1's slot at bit 0), or the earliest
	// far event if that comes first.
	target := int64(math.MaxInt64)
	if k.busy != 0 {
		first := k.now + 1
		target = first + int64(bits.TrailingZeros64(bits.RotateLeft64(k.busy, -int(first&wheelMask))))
	}
	if len(k.events) > 0 && k.events[0].at < target {
		target = k.events[0].at
	}
	k.now = target

	// Collect the cycle's ids as bits: the slot, emptied before any tick
	// so a wake-up a full horizon ahead lands in it afresh, then the far
	// events due now. A bit set twice is still one tick, and walking the
	// words low to high ticks in ascending id order.
	if s := int(target) & wheelMask; k.busy&(1<<s) != 0 {
		k.busy &^= 1 << s
		for w := range k.due {
			k.due[w] = k.wheel[w*wheelSlots+s]
			k.wheel[w*wheelSlots+s] = 0
		}
	}
	for len(k.events) > 0 && k.events[0].at == target {
		id := k.events.pop().id
		k.due[id>>6] |= 1 << (id & 63)
	}
	for w := 0; w < len(k.due); w++ {
		word := k.due[w]
		k.due[w] = 0
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			if k.comps[id].Tick(target) {
				k.Activate(id)
			}
		}
	}
	if len(k.incrs) > 0 {
		for _, ctr := range k.incrs {
			(*ctr)++
		}
		k.incrs = k.incrs[:0]
	}
	return true
}

// Run steps until the kernel is idle or maxCycles cycles have elapsed.
// It returns the number of cycles simulated and whether the kernel went
// idle (false means the budget was exhausted first).
func (k *Kernel) Run(maxCycles int64) (cycles int64, idle bool) {
	start := k.now
	limit := start + maxCycles
	for k.now < limit {
		if !k.Step() {
			return k.now - start, true
		}
	}
	return k.now - start, false
}
