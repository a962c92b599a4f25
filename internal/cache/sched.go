package cache

import (
	"nucanet/internal/flit"
	"nucanet/internal/network"
	"nucanet/internal/sim"
)

// scheduler is a bank agent's send queue: already-built packets waiting
// for their modeled injection cycle (the completion time of the bank
// access that produced them). It is a sim.Component.
type scheduler struct {
	k   *sim.Kernel
	kid int
	net *network.Network
	q   timedHeap
	seq int
}

// sendQueueCap is a send queue's starting capacity: the deepest queue a
// bank agent reaches on the benchmark's runs (Designs A, F and H2), so
// the queues do not regrow during a run.
const sendQueueCap = 4

// timed is a built packet waiting in a send queue for its injection
// cycle At; Seq breaks ties in scheduling order.
type timed struct {
	At  int64
	Seq int
	Pkt *flit.Packet
}

// timedHeap is a hand-rolled binary min-heap ordered by (At, Seq).
// container/heap would box every entry through `any` on Push/Pop — a
// heap allocation per scheduled send — so the sift loops are inlined
// here, mirroring the kernel's event heap.
type timedHeap struct {
	s []timed
}

func (h *timedHeap) less(i, j int) bool {
	if h.s[i].At != h.s[j].At {
		return h.s[i].At < h.s[j].At
	}
	return h.s[i].Seq < h.s[j].Seq
}

func (h *timedHeap) push(e timed) {
	h.s = append(h.s, e)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *timedHeap) pop() timed {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s[n] = timed{} // the packet now belongs to the network
	h.s = h.s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return top
}

// register makes s a kernel component sending into net, its queue
// carved from ar.
func (s *scheduler) register(k *sim.Kernel, net *network.Network, ar *Arena) {
	s.k = k
	s.net = net
	s.q.s = ar.timedSlab(sendQueueCap)
	s.kid = k.Register(s)
}

// at schedules pkt for injection at cycle t (or next cycle if t has
// passed).
func (s *scheduler) at(t int64, pkt *flit.Packet) {
	s.seq++
	s.q.push(timed{At: t, Seq: s.seq, Pkt: pkt})
	s.k.WakeAt(t, s.kid)
}

// Tick injects all due packets in schedule order.
func (s *scheduler) Tick(now int64) bool {
	for len(s.q.s) > 0 && s.q.s[0].At <= now {
		s.net.Send(s.q.pop().Pkt, now)
	}
	return false // WakeAt re-arms per entry
}
