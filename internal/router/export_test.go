package router

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
