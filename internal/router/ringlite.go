package router

import (
	"fmt"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// ringLatchCap is the per-input packet latch depth: the "two-entry" in
// ring-lite. One entry drains downstream while the next arrives.
const ringLatchCap = 2

// RingLite is a minimal store-and-forward router in the spirit of the
// cheap ring stops of arxiv 2007.02242: per-input two-entry packet
// latches, no virtual channels, no credit wires — backpressure is the
// direct neighbor-latch occupancy check a ring stop gets for free from
// its short point-to-point links. Whole packets move as units; a hop
// costs the pipeline Stages plus link delay plus (Flits-1) serialization
// cycles, the store-and-forward penalty that is the price of the tiny
// buffers. Arbitration is oldest-first per output with ring (transit)
// traffic strictly prioritized over injection — the classic ring rule
// that keeps the stop simple and the ring drain guaranteed.
//
// It is built for the R ring topology but runs any routed design:
// a unit in a latch waits only for space in the next latch along its
// precomputed route, so its wait-for edges are exactly the consecutive-
// channel dependence edges of the routes — a subset of the
// channel-dependence graph routing.VerifyDeadlockFree has already proved
// acyclic before the network is built. Path multicast replicates at
// forward time: store-and-forward means the whole packet is present at
// every visited router, so a same-column stop hands the local bank its
// copy directly — no stolen VCs needed.
type RingLite struct {
	latched

	usedIn []bool // per-cycle scratch: input ports already granted
}

// newRingLite builds one ring-lite node.
func newRingLite(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, s Sink, ar *Arena) Engine {
	r := node(&ar.ringLites)
	*r = RingLite{latched: newLatched(id, topo, tb, cfg, k, s, ar)}
	r.usedIn = ar.boolSlab(r.numPorts + 1)
	r.kid = k.Register(r)
	return r
}

// Wire connects out-port p to neighbor n.
func (r *RingLite) Wire(p int, n Engine, np, delay int) {
	nb, ok := n.(*RingLite)
	if !ok {
		panic(fmt.Sprintf("router: ring-lite router %d wired to %T (engines cannot mix within one network)", r.ID, n))
	}
	r.link(p, &nb.latched, np, delay)
}

// Tick runs one ring-stop cycle: eject self-addressed fronts, then for
// each output in fixed order grant the oldest transit unit routed to it
// (injection only when no transit unit wants the port), moving a unit
// only if the downstream latch has a free entry.
func (r *RingLite) Tick(now int64) bool {
	usedIn := r.usedIn
	for i := range usedIn {
		usedIn[i] = false
	}

	// Phase A: ejection, one unit per port (the endpoint interface is as
	// wide as the input side, matching the wormhole router).
	for pi := range r.in {
		if e := r.ready(pi, now); e != nil && e.f.Pkt.Dst == r.ID {
			usedIn[pi] = true
			r.eject(r.in[pi].pop(), pi, now)
		}
	}

	// Phase B: per-output arbitration, ascending port order.
	for o := 0; o < r.numPorts; o++ {
		nb := r.neighbor[o]
		if nb == nil {
			continue
		}
		cp := r.pickOldest(o, now, usedIn)
		if cp < 0 {
			continue
		}
		if nb.in[r.neighborIn[o]].len() >= ringLatchCap {
			r.stats.CreditStalls++ // downstream latch full: backpressure
			continue
		}
		usedIn[cp] = true
		r.forward(cp, o, now)
	}

	return r.occ > 0
}

// pickOldest returns the input port whose eligible front unit routes to
// output o and is oldest, or -1. Transit ports are scanned first;
// injection is considered only when no transit unit wants the port.
func (r *RingLite) pickOldest(o int, now int64, usedIn []bool) int {
	best := -1
	var bestPkt *flit.Packet
	for pi := 0; pi < r.numPorts; pi++ {
		e := r.ready(pi, now)
		if usedIn[pi] || e == nil {
			continue
		}
		if p, ok := r.tb.NextPort(r.topo, r.ID, e.f.Pkt.Dst); !ok || p != o {
			continue
		}
		if best < 0 || olderUnit(e.f.Pkt, bestPkt) {
			best, bestPkt = pi, e.f.Pkt
		}
	}
	if best >= 0 {
		return best
	}
	pi := r.numPorts
	if e := r.ready(pi, now); !usedIn[pi] && e != nil {
		if p, ok := r.tb.NextPort(r.topo, r.ID, e.f.Pkt.Dst); ok && p == o {
			return pi
		}
	}
	return -1
}

// forward moves the front unit of input cp through output o, replicating
// to the local bank first when this stop lies on a multicast path. The
// store-and-forward hop: the unit becomes eligible downstream after link
// delay plus (Flits-1) serialization cycles.
func (r *RingLite) forward(cp, o int, now int64) {
	e := r.in[cp].pop()
	pkt := e.f.Pkt

	// Path multicast: the whole packet is latched here, so a same-column
	// stop hands the local bank its copy directly as the unit departs —
	// each visited column router replicates exactly once, the same
	// replication points as the wormhole router's route assignment.
	if pkt.PathDeliver && r.topo.SameColumn(r.ID, pkt.Dst) {
		rp := r.replica(pkt, r.ID)
		r.stats.ReplicasSpawned += uint64(rp.Flits())
		rf := flit.Flit{Pkt: rp, Head: true, Tail: true}
		r.tel.ReplicaForked(now, rf, int(r.ID), cp, 0)
		r.tel.FlitEjected(now, rf, int(r.ID), cp)
		r.deliver(rp, now)
		r.pool.Put(rp)
	}
	r.hop(e, o, now, int64(pkt.Flits()-1))
}
