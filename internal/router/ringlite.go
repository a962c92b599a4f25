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
	base // occ weights buffered units by Flits

	in       []flitRing // per-port unit latches; injection queue is unbounded
	neighbor []*RingLite

	usedIn []bool // per-cycle scratch: input ports already granted
}

func init() {
	Register(Builder{
		Name:        "ring-lite",
		Description: "two-entry-latch store-and-forward ring stop: no VCs, no credits, transit priority",
		New: func(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) Engine {
			return newRingLite(id, topo, tb, cfg, k, ar)
		},
		BufferFlitsPerPort: func(Config) int { return ringLatchCap },
	})
}

func newRingLite(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) *RingLite {
	b := newBase(id, topo, tb, cfg, k, ar)
	np := b.numPorts
	return &RingLite{
		base:     b,
		in:       ar.ringSlab(np + 1),
		neighbor: make([]*RingLite, np),
		usedIn:   ar.boolSlab(np + 1),
	}
}

// Wire connects out-port p to neighbor n.
func (r *RingLite) Wire(p int, n Engine, np, delay int) {
	nb, ok := n.(*RingLite)
	if !ok {
		panic(fmt.Sprintf("router: ring-lite router %d wired to %T (engines cannot mix within one network)", r.ID, n))
	}
	r.neighbor[p] = nb
	r.neighborIn[p] = np
	r.linkDelay[p] = delay
}

// Inject queues a packet at the injection interface (unbounded: the NI is
// the source).
func (r *RingLite) Inject(p *flit.Packet, now int64) {
	n := p.Flits()
	for i := 0; i < n; i++ {
		r.tel.FlitInjected(now, flit.Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == n-1}, int(r.ID))
	}
	r.in[r.numPorts].push(entry{f: flit.Flit{Pkt: p, Head: true, Tail: true}, arrived: now})
	r.occ += n
	r.k.Activate(r.kid)
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
		q := &r.in[pi]
		if q.len() == 0 {
			continue
		}
		e := *q.front()
		if e.arrived+int64(r.cfg.Stages) > now {
			continue
		}
		if e.f.Pkt.Dst == r.ID {
			q.pop()
			usedIn[pi] = true
			r.eject(e, pi, now)
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
		if usedIn[pi] || r.in[pi].len() == 0 {
			continue
		}
		e := r.in[pi].front()
		if e.arrived+int64(r.cfg.Stages) > now {
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
	if !usedIn[pi] && r.in[pi].len() > 0 {
		e := r.in[pi].front()
		if e.arrived+int64(r.cfg.Stages) <= now {
			if p, ok := r.tb.NextPort(r.topo, r.ID, e.f.Pkt.Dst); ok && p == o {
				return pi
			}
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
	r.occ -= pkt.Flits()
	r.stats.FlitsRouted += uint64(pkt.Flits())

	// Path multicast: the whole packet is latched here, so a same-column
	// stop hands the local bank its copy directly as the unit departs —
	// each visited column router replicates exactly once, the same
	// replication points as the wormhole router's route assignment.
	if pkt.PathDeliver && r.topo.SameColumn(r.ID, pkt.Dst) {
		rp := r.pool.Get()
		rp.ID, rp.Kind, rp.Src, rp.Dst = pkt.ID, pkt.Kind, pkt.Src, r.ID
		rp.DstEp, rp.DstPos, rp.Addr = flit.ToBank, pkt.DstPos, pkt.Addr
		rp.Payload, rp.Injected = pkt.Payload, pkt.Injected
		rp.Delivered = now
		r.stats.ReplicasSpawned += uint64(rp.Flits())
		r.stats.PacketsEjected++
		rf := flit.Flit{Pkt: rp, Head: true, Tail: true}
		r.tel.ReplicaForked(now, rf, int(r.ID), cp, 0)
		r.tel.FlitEjected(now, rf, int(r.ID), cp)
		if r.deliver == nil {
			panic(fmt.Sprintf("router %d: replica delivery with no endpoint for %v", r.ID, rp))
		}
		r.deliver(rp, now)
		r.pool.Put(rp)
	}

	r.tel.FlitRouted(now, e.f, int(r.ID), o, 0)
	nb := r.neighbor[o]
	e.arrived = now + int64(r.linkDelay[o]-1) + int64(pkt.Flits()-1)
	nb.in[r.neighborIn[o]].push(e)
	nb.occ += pkt.Flits()
	r.k.Activate(nb.kid)
}

// eject delivers a unit to the local endpoint; pooled replicas are
// recycled (consumed synchronously by their agents).
func (r *RingLite) eject(e entry, pi int, now int64) {
	pkt := e.f.Pkt
	r.occ -= pkt.Flits()
	r.stats.FlitsRouted += uint64(pkt.Flits())
	r.tel.FlitEjected(now, e.f, int(r.ID), pi)
	pkt.Delivered = now
	r.stats.PacketsEjected++
	if r.deliver == nil {
		panic(fmt.Sprintf("router %d: ejection with no endpoint for %v", r.ID, pkt))
	}
	r.deliver(pkt, now)
	r.pool.Put(pkt)
}
