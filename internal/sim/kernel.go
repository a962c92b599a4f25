// Package sim provides a deterministic, activity-driven cycle simulation
// kernel. Components register with a Kernel and are ticked only on cycles
// where they have work; cycles with no active component are skipped by
// jumping the clock to the next scheduled event. This keeps long memory
// latencies (hundreds of idle cycles) free.
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
// The kernel's inner loop is allocation-free in steady state: the event
// heap is a typed slice (no interface boxing), a cycle's due ids are bits
// of a bitmap sized at registration, and deferred credit returns go
// through DeferIncr, which records a pointer instead of capturing a
// closure. The root-level allocation guards pin this.
package sim

import "math/bits"

// Component is anything the kernel can tick once per active cycle.
// Tick returns true if the component wants to be ticked on the next cycle
// as well (it still has queued work); returning false parks it until it is
// re-activated by an event or by another component.
type Component interface {
	Tick(now int64) bool
}

// event wakes a component at a fixed future cycle.
type event struct {
	at  int64
	seq int // tie-break for determinism
	id  int
}

// eventHeap is a binary min-heap ordered by (at, seq). It is maintained
// with inline sift operations rather than container/heap so pushes and
// pops move typed values, never boxing through `any`.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
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
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
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

func (h eventHeap) peek() (int64, bool) { // earliest event time
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Kernel drives registered components cycle by cycle.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now     int64
	comps   []Component
	pending []bool   // comps scheduled for the next cycle
	next    []int    // ids scheduled for the next cycle (unsorted)
	due     []uint64 // one bit per comp due this cycle; all zero between Steps
	events  eventHeap
	incrs   []*int // deferred counter increments (see DeferIncr)
	seq     int
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
	k.pending = append(k.pending, false)
	if id>>6 >= len(k.due) {
		k.due = append(k.due, 0)
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
	if !k.pending[id] {
		k.pending[id] = true
		k.next = append(k.next, id)
	}
}

// WakeAt schedules component id to tick at cycle t. If t is not in the
// future the component is activated for the next cycle instead.
func (k *Kernel) WakeAt(t int64, id int) {
	if t <= k.now {
		k.Activate(id)
		return
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, id: id})
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
	return len(k.next) == 0 && len(k.events) == 0
}

// Step advances the clock to the next cycle with work and ticks every
// scheduled component in id order. It returns false when the kernel is
// idle (nothing will ever run again without external scheduling).
func (k *Kernel) Step() bool {
	if k.Idle() {
		return false
	}
	// Decide the next cycle: now+1 if anything is scheduled for it,
	// otherwise jump to the earliest event.
	target := k.now + 1
	if len(k.next) == 0 {
		if t, ok := k.events.peek(); ok {
			target = t
		}
	}
	k.now = target

	// Collect the cycle's ids as bits: activations, then events due now.
	// A bit set twice (event + activation overlap) is still one tick, and
	// walking the touched words low to high ticks in ascending id order.
	lo, hi := len(k.due), -1
	mark := func(id int) {
		w := id >> 6
		k.due[w] |= 1 << (id & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for _, id := range k.next {
		k.pending[id] = false
		mark(id)
	}
	k.next = k.next[:0]
	for len(k.events) > 0 && k.events[0].at <= k.now {
		mark(k.events.pop().id)
	}
	for w := lo; w <= hi; w++ {
		for word := k.due[w]; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			if k.comps[id].Tick(k.now) {
				k.Activate(id)
			}
		}
		k.due[w] = 0
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
