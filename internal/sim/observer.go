package sim

// Observer invokes a callback every fixed number of cycles while the
// kernel still has other work — the substrate for telemetry time-series
// sampling (queue occupancy, in-flight operations). It is a passive
// component: the callback must only read simulation state, never mutate
// it, so an observed run is cycle-for-cycle identical to an unobserved
// one.
//
// An observer re-arms itself only while some other component or event is
// still scheduled; once the rest of the kernel drains it parks, so
// Run/Drain loops that wait for idleness still terminate. Register the
// observer after every working component (ids order ticking within a
// cycle) so its idle check sees the cycle's final scheduling state.
type Observer struct {
	k     *Kernel
	kid   int
	every int64
	fn    func(now int64)
}

// Observe registers a periodic observer that calls fn every `every`
// cycles, first at Now()+every.
func Observe(k *Kernel, every int64, fn func(now int64)) *Observer {
	if every <= 0 {
		panic("sim: observer period must be positive")
	}
	o := &Observer{k: k, every: every, fn: fn}
	o.kid = k.Register(o)
	k.WakeAt(k.Now()+every, o.kid)
	return o
}

// Tick samples and re-arms unless the observer is the only thing left
// keeping the kernel alive.
func (o *Observer) Tick(now int64) bool {
	o.fn(now)
	if o.k.Idle() {
		return false // everything else drained; let the kernel go idle
	}
	o.k.WakeAt(now+o.every, o.kid)
	return false
}
