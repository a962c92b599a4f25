package network

import (
	"fmt"

	"nucanet/internal/flit"
)

// Timed is a built packet waiting in an Outbox for its injection cycle At.
type Timed struct {
	At  int64
	Pkt *flit.Packet
}

// Outbox is one sender's queue of packets built ahead of their cycle: a
// bank agent's replies, chain blocks and miss notices wait for the end of
// the bank access that produced them, the memory's blocks for its port.
// It is a kernel component that sends every due entry in queue order.
//
// A sender's cycles never decrease, so arrival order is cycle order and
// a FIFO is the whole schedule; At panics on a cycle earlier than the
// last one queued, the one state that would break it.
type Outbox struct {
	net *Network
	id  int
	q   []Timed
}

// Register makes o an empty outbox sending into net and registers it
// with net's kernel. The queue keeps the storage o held before, or
// starts in buf when o held none, so a sender renewed run after run, or
// carved from an arena, stops allocating.
func (o *Outbox) Register(net *Network, buf []Timed) {
	if cap(o.q) > 0 {
		buf = o.q
	}
	*o = Outbox{net: net, q: buf[:0]}
	o.id = net.K.Register(o)
}

// At queues pkt for injection at cycle t, or on the next cycle if t has
// passed.
func (o *Outbox) At(t int64, pkt *flit.Packet) {
	if n := len(o.q); n > 0 && t < o.q[n-1].At {
		panic(fmt.Sprintf("network: outbox entry for cycle %d queued after one for cycle %d", t, o.q[n-1].At))
	}
	o.q = append(o.q, Timed{At: t, Pkt: pkt})
	o.net.K.WakeAt(t, o.id)
}

// Tick sends the due prefix of the queue and shifts the rest to the
// front, so the queue never outgrows its deepest backlog.
func (o *Outbox) Tick(now int64) bool {
	n := 0
	for ; n < len(o.q) && o.q[n].At <= now; n++ {
		o.net.Send(o.q[n].Pkt, now)
	}
	rest := copy(o.q, o.q[n:])
	clear(o.q[rest:]) // the sent packets now belong to the network
	o.q = o.q[:rest]
	return false // WakeAt re-arms per entry
}
