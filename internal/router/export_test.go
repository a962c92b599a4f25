package router

import "testing"

// TickCounts returns a wormhole router's Tick calls and those that found
// no ready front flit; zeros for the other engines.
func TickCounts(e Engine) (ticks, unready uint64) {
	if r, ok := e.(*Router); ok {
		return r.ticks, r.unready
	}
	return 0, 0
}

// WakeEager switches a wormhole router to the wake-up rule that predates
// parking (see Router.wakeEager).
func WakeEager(e Engine) {
	if r, ok := e.(*Router); ok {
		r.wakeEager = true
	}
}

// WithEngine adds b to the engines table until t ends, so a test can
// drive an engine that fails a construction gate through the packages
// that look engines up by name (core's design gate, network.New).
func WithEngine(t testing.TB, b Builder) {
	engines[b.Name] = b
	t.Cleanup(func() { delete(engines, b.Name) })
}
