package router

// flitRing is the flit FIFO of one virtual channel: a circular buffer that
// reuses its backing array across cycles instead of append-growing and
// re-slicing like the previous []entry queues (which drifted through
// their backing arrays and reallocated every few packets). Neighbor-fed
// VCs never exceed BufDepth (credit flow control bounds them), so their
// slab-carved initial capacity is final; the unbounded injection VCs are
// carved at injRingFlits, which a run rarely outgrows, and past it grow
// geometrically and stay at their high-water capacity for the rest of
// the run — zero allocations per steady-state cycle.
type flitRing struct {
	buf  []entry
	head int // index of the front entry
	n    int // occupied entries
}

// len returns the number of buffered entries.
func (r *flitRing) len() int { return r.n }

// front returns the oldest entry. Call only when len() > 0.
func (r *flitRing) front() *entry {
	return &r.buf[r.head]
}

// push appends an entry at the back, growing the buffer when full.
func (r *flitRing) push(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

// pop removes and returns the front entry, clearing the vacated slot so
// the flitRing does not pin delivered packets for the garbage collector.
func (r *flitRing) pop() entry {
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return e
}

// grow doubles the capacity, linearizing the contents to index 0.
func (r *flitRing) grow() {
	cap := len(r.buf) * 2
	if cap < 4 {
		cap = 4
	}
	buf := make([]entry, cap)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf = buf
	r.head = 0
}
