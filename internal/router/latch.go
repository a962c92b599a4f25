package router

import (
	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// latched is the core the two whole-packet engines (Bufferless and
// RingLite) embed: per-input packet latches, each unit a whole packet
// that moves one hop at a time, and the moves both engines make the same
// way — injection, ejection and the hop into a neighbor's latch. Each
// engine keeps only its arbitration and its multicast handling.
type latched struct {
	base // occ weights buffered units by Flits

	in       []flitRing // per-port unit latches; injection (last) is unbounded
	neighbor []*latched // per out port, nil if no link
}

func newLatched(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, s Sink, ar *Arena) latched {
	b := newBase(id, topo, tb, cfg, k, s, ar)
	return latched{base: b, in: ar.ringSlab(b.numPorts + 1), neighbor: ar.latchSlab(b.numPorts)}
}

// link connects out-port p to neighbor nb's in-port np over a link of
// the given delay.
func (l *latched) link(p int, nb *latched, np, delay int) {
	l.neighbor[p], l.neighborIn[p], l.linkDelay[p] = nb, np, delay
}

// ready returns input pi's front unit once it has spent the pipeline
// Stages here, nil while the latch is empty or its front is not ready.
func (l *latched) ready(pi int, now int64) *entry {
	q := &l.in[pi]
	if q.len() == 0 || q.front().arrived+int64(l.cfg.Stages) > now {
		return nil
	}
	return q.front()
}

// Inject queues a packet at the injection interface (unbounded: the NI is
// the source).
func (l *latched) Inject(p *flit.Packet, now int64) {
	l.enqueue(p, now)
	l.k.Activate(l.kid)
}

// enqueue latches p whole at the injection port.
func (l *latched) enqueue(p *flit.Packet, now int64) {
	n := p.Flits()
	for i := 0; i < n; i++ {
		l.tel.FlitInjected(now, flit.Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == n-1}, int(l.ID))
	}
	l.in[l.numPorts].push(entry{f: flit.Flit{Pkt: p, Head: true, Tail: true}, arrived: now})
	l.occ += n
}

// eject delivers unit e, popped from input pi, to the local endpoint and
// recycles it (Put ignores packets the pool did not mint).
func (l *latched) eject(e entry, pi int, now int64) {
	pkt := e.f.Pkt
	l.occ -= pkt.Flits()
	l.stats.FlitsRouted += uint64(pkt.Flits())
	l.tel.FlitEjected(now, e.f, int(l.ID), pi)
	l.deliver(pkt, now)
	l.pool.Put(pkt)
}

// hop moves unit e, popped from its input, through out-port o into the
// neighbor's latch, where it arrives after the link delay plus extra
// cycles.
func (l *latched) hop(e entry, o int, now, extra int64) {
	n := e.f.Pkt.Flits()
	l.occ -= n
	l.stats.FlitsRouted += uint64(n)
	l.tel.FlitRouted(now, e.f, int(l.ID), o, 0)
	nb := l.neighbor[o]
	e.arrived = now + int64(l.linkDelay[o]-1) + extra
	nb.in[l.neighborIn[o]].push(e)
	nb.occ += n
	l.k.Activate(nb.kid)
}
