// Package router holds the registry of router microarchitectures
// (registry.go): pluggable Engine implementations the network layer
// selects by name — the paper's VC wormhole router (this file, the
// default), a bufferless deflection router (bufferless.go), and a
// minimal two-entry-latch ring router (ringlite.go).
//
// The default engine is the paper's single-cycle multicasting wormhole
// router (Section 3.1). Each physical channel (PC) holds several virtual
// channels (VCs) of small flit buffers with credit-based flow control.
// Lookahead routing, buffer bypassing, speculative switch allocation and
// arbitration precomputation are abstracted into a configurable pipeline
// depth of one cycle: an uncontended flit spends exactly Stages cycles per
// hop plus the link's wire delay beyond the first cycle.
//
// Multicast uses the paper's hybrid replication: when a path-multicast
// packet must both continue downstream and be delivered to the local bank,
// the replicator copies the flit into a free VC of a *different* PC of the
// same router — exploiting underutilized input buffers instead of adding
// dedicated multicast storage. If no VC is free the forward blocks (the
// paper observes this is rare; the router counts it).
//
// The router's steady-state cycle is allocation-free: VC queues are ring
// buffers carved from one per-router slab, the switch-allocation scratch
// is reused across cycles, request masks make arbitration scan only the
// VCs actually requesting an output, credit returns go through the
// kernel's typed DeferIncr, and multicast replica packets are recycled
// through a per-run flit.PacketPool. All of it is decision-for-decision
// identical to the straightforward implementation it replaced — the
// byte-identical determinism regression in internal/core is the proof.
package router

import (
	"fmt"
	"math/bits"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
)

// Config sets the router microarchitecture parameters (Table 1 defaults).
type Config struct {
	VCsPerPC int // virtual channels per physical channel (4)
	BufDepth int // flit buffer depth per VC (4)
	// Stages is the per-hop router latency in cycles. 1 models the
	// paper's single-cycle router; larger values model a conventional
	// pipelined router for ablations.
	Stages int
	// Engine names the registered router microarchitecture ("vc-wormhole",
	// "bufferless", "ring-lite", or any engine the embedding program
	// registered). Empty selects DefaultEngine, so existing configs keep
	// simulating the paper's wormhole router unchanged.
	Engine string
}

// DefaultConfig returns the Table 1 router parameters.
func DefaultConfig() Config {
	return Config{VCsPerPC: 4, BufDepth: 4, Stages: 1}
}

func init() {
	Register(Builder{
		Name:        DefaultEngine,
		Description: "credit-based VC wormhole router with hybrid multicast replication (Table 1)",
		New: func(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) Engine {
			return New(id, topo, tb, cfg, k, ar)
		},
		BufferFlitsPerPort: func(cfg Config) int {
			cfg = cfg.withDefaults()
			return cfg.VCsPerPC * cfg.BufDepth
		},
	})
}

func (c Config) withDefaults() Config {
	if c.VCsPerPC <= 0 {
		c.VCsPerPC = 4
	}
	if c.BufDepth <= 0 {
		c.BufDepth = 4
	}
	if c.Stages <= 0 {
		c.Stages = 1
	}
	return c
}

// Stats counts router activity. Engines fill the counters that apply to
// their microarchitecture: the wormhole router never deflects, the
// bufferless router has no credits to stall on.
type Stats struct {
	FlitsRouted     uint64 // flits granted switch traversal
	PacketsEjected  uint64
	ReplicasSpawned uint64 // multicast flit copies placed into stolen VCs
	ReplicaBlocked  uint64 // cycles a multicast flit stalled with no free VC
	CreditStalls    uint64 // cycles the switch winner had no downstream credit
	Deflections     uint64 // flits granted a non-productive port (bufferless misroutes)
}

// Merge adds o's counters into s. Commutative and associative, so
// aggregates over routers or over runs combine in any order.
func (s *Stats) Merge(o Stats) {
	s.FlitsRouted += o.FlitsRouted
	s.PacketsEjected += o.PacketsEjected
	s.ReplicasSpawned += o.ReplicasSpawned
	s.ReplicaBlocked += o.ReplicaBlocked
	s.CreditStalls += o.CreditStalls
	s.Deflections += o.Deflections
}

// Clone returns an independent copy. Stats is a plain value today; Clone
// keeps the aggregation API uniform with stats.Latency if reference
// fields are ever added.
func (s Stats) Clone() Stats { return s }

const unassigned = -1

// entry is one buffered flit plus the cycle it became available here.
type entry struct {
	f       flit.Flit
	arrived int64
}

// vcState is one virtual channel of an input port.
type vcState struct {
	port  int // input port index
	idx   int // VC index within the port
	q     flitRing
	route int // assigned output (port index, ejectOut) or unassigned
	outVC int // downstream VC for neighbor routes
	// Multicast replication state for the packet at the head.
	replNeed bool
	replPort int // input port holding the stolen VC, unassigned if none yet
	replVC   int
	replPkt  *flit.Packet
}

// outState tracks the downstream VC pool of one neighbor output port.
type outState struct {
	credits []int
	owner   []*flit.Packet
}

// Router is one node of the interconnect. Wire one with the network
// package; it is a sim.Component ticked on active cycles.
type Router struct {
	base

	in  [][]*vcState // [port][vc]; last port is injection
	out []*outState  // [neighbor port]

	neighbor   []*Router // per out port, nil if no link
	upstream   []*Router // per in port, nil if none feeds it
	upstreamOP []int     // upstream's out-port index

	rrOut  []int // round-robin pointer per output (incl. eject)
	injVC  int   // round-robin injection VC
	replRR int

	// Hot-path state, all reused across cycles.
	portOcc []int      // flits buffered per input port
	usedIn  []bool     // per-cycle switch-allocation scratch
	reqMask [][]uint64 // [neighbor out][bit pi*VCs+vi]: VCs routed to that output
}

// base is the plumbing the three engines share: identity, the routing
// table and kernel handles, the per-out-port link wiring, the ejection
// callback, the replica pool, the probe collector, and the counters.
// Engines embed it by value — no extra heap object, no pointer hop on the
// hot path — and keep their own buffers, typed neighbor pointers, Wire,
// Inject and Tick.
type base struct {
	ID   topology.NodeID
	cfg  Config
	topo *topology.Topology
	tb   *routing.Table
	k    *sim.Kernel
	kid  int

	numPorts   int   // neighbor ports (injection is index numPorts)
	neighborIn []int // per out port: in-port index at the neighbor
	linkDelay  []int // per out port

	deliver func(*flit.Packet, int64)
	pool    *flit.PacketPool
	tel     *telemetry.Collector // nil when probes are disabled

	occ   int // flits buffered here, injection queue included
	stats Stats
}

// newBase fills the shared part of an unwired engine; a nil arena
// allocates the port slices directly.
func newBase(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) base {
	np := topo.NumPorts(id)
	return base{
		ID: id, cfg: cfg.withDefaults(), topo: topo, tb: tb, k: k,
		numPorts:   np,
		neighborIn: ar.intSlab(np),
		linkDelay:  ar.intSlab(np),
	}
}

// SetDeliver installs the local ejection callback.
func (b *base) SetDeliver(f func(*flit.Packet, int64)) { b.deliver = f }

// SetKernelID records the component id for activations.
func (b *base) SetKernelID(id int) { b.kid = id }

// SetTelemetry installs the probe collector (nil disables all probes).
func (b *base) SetTelemetry(c *telemetry.Collector) { b.tel = c }

// SetPool installs the packet freelist for multicast replicas. The
// network installs one shared pool per run; a nil pool (the default for
// unwired routers) falls back to plain allocation.
func (b *base) SetPool(p *flit.PacketPool) { b.pool = p }

// Stats returns a copy of the router's counters.
func (b *base) Stats() Stats { return b.stats }

// Occupancy returns the flits buffered here, injection queue included.
func (b *base) Occupancy() int { return b.occ }

// New creates an unwired router; the network package connects neighbors,
// sets the deliver callback, and registers it with the kernel. Routers
// consume routing only through a precomputed table (routing.Precompute),
// never a raw algorithm: route lookup is a flat array index regardless
// of the topology family. A non-nil arena supplies the backing storage
// for every construction-time slice (see Arena); nil allocates directly.
func New(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) *Router {
	b := newBase(id, topo, tb, cfg, k, ar)
	cfg, np := b.cfg, b.numPorts
	r := &Router{
		base:       b,
		neighbor:   make([]*Router, np),
		upstream:   make([]*Router, np+1),
		upstreamOP: ar.intSlab(np + 1),
		rrOut:      ar.intSlab(np + 1),
		portOcc:    ar.intSlab(np + 1),
		usedIn:     ar.boolSlab(np + 1),
	}
	// All VC rings share one backing slab: one allocation per router,
	// and neighbor-fed VCs (bounded at BufDepth by credit flow control)
	// never grow past their carved slice.
	slab := ar.entrySlab((np + 1) * cfg.VCsPerPC * cfg.BufDepth)
	words := ((np+1)*cfg.VCsPerPC + 63) / 64
	r.reqMask = make([][]uint64, np)
	for o := range r.reqMask {
		r.reqMask[o] = ar.wordSlab(words)
	}
	r.in = make([][]*vcState, np+1)
	for p := range r.in {
		vcSlab := ar.vcSlab(cfg.VCsPerPC)
		vcs := make([]*vcState, cfg.VCsPerPC)
		for v := range vcs {
			vcs[v] = &vcSlab[v]
			*vcs[v] = vcState{port: p, idx: v, route: unassigned}
			vcs[v].q.buf, slab = slab[:cfg.BufDepth:cfg.BufDepth], slab[cfg.BufDepth:]
			r.resetRoute(vcs[v])
		}
		r.in[p] = vcs
	}
	outSlab := ar.outSlab(np)
	r.out = make([]*outState, np)
	for p := range r.out {
		r.out[p] = &outSlab[p]
		*r.out[p] = outState{
			credits: ar.intSlab(cfg.VCsPerPC),
			owner:   ar.pktSlab(cfg.VCsPerPC),
		}
		for v := range r.out[p].credits {
			r.out[p].credits[v] = cfg.BufDepth
		}
	}
	return r
}

// Wire connects this router's out-port p to neighbor n (entering n's
// in-port np over a link of the given delay) and records the reverse
// upstream reference for credit return. The neighbor must be another
// wormhole router: credits flow over dedicated wires between peer
// instances, so a heterogeneous network is a wiring bug, not a mode.
func (r *Router) Wire(p int, n Engine, np, delay int) {
	nb, ok := n.(*Router)
	if !ok {
		panic(fmt.Sprintf("router: wormhole router %d wired to %T (engines cannot mix within one network)", r.ID, n))
	}
	r.neighbor[p] = nb
	r.neighborIn[p] = np
	r.linkDelay[p] = delay
	nb.upstream[np] = r
	nb.upstreamOP[np] = p
}

// resetRoute clears a VC's routing state, removing it from its output's
// request mask.
func (r *Router) resetRoute(v *vcState) {
	if v.route >= 0 && v.route != ejectOut {
		idx := v.port*r.cfg.VCsPerPC + v.idx
		r.reqMask[v.route][idx>>6] &^= 1 << uint(idx&63)
	}
	v.route = unassigned
	v.outVC = unassigned
	v.replNeed = false
	v.replPort = unassigned
	v.replVC = unassigned
	v.replPkt = nil
}

// pushFlit buffers e into VC (pi, vi), maintaining occupancy counters.
func (r *Router) pushFlit(pi, vi int, e entry) {
	r.in[pi][vi].q.push(e)
	r.occ++
	r.portOcc[pi]++
}

// Inject queues a packet's flits at the injection port (called by the
// network on Send). Injection queues are unbounded: the NI is the source.
func (r *Router) Inject(p *flit.Packet, now int64) {
	v := r.injVC
	r.injVC++
	if r.injVC == r.cfg.VCsPerPC {
		r.injVC = 0
	}
	n := p.Flits()
	for i := 0; i < n; i++ {
		f := flit.Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == n-1}
		r.pushFlit(r.numPorts, v, entry{f: f, arrived: now})
		r.tel.FlitInjected(now, f, int(r.ID))
	}
	r.k.Activate(r.kid)
}

const ejectOut = 1 << 20 // sentinel route value for local ejection

// Tick performs one router cycle: route computation + VC allocation for
// head flits, then switch allocation and traversal (one grant per output,
// at most one flit per input PC — VCs of a PC share a crossbar port).
func (r *Router) Tick(now int64) bool {
	// Phase A: routing, VC allocation, multicast replica allocation for
	// the flit at the front of each VC.
	for pi, port := range r.in {
		if r.portOcc[pi] == 0 {
			continue
		}
		for _, v := range port {
			if v.q.len() == 0 {
				continue
			}
			e := v.q.front()
			if e.arrived+int64(r.cfg.Stages) > now {
				continue
			}
			if e.f.Head && v.route == unassigned {
				r.assignRoute(v, e.f.Pkt)
			}
			if v.route != unassigned && v.route != ejectOut && v.outVC == unassigned {
				r.allocVC(v, e.f.Pkt, now)
			}
			if v.replNeed && v.replPort == unassigned {
				r.allocReplica(v, pi)
			}
		}
	}

	// Phase B1: ejection. Each input PC has its own channel into the
	// local endpoint interface (the NI is as wide as the input side, and
	// the halo hub's controller exposes one interface per spike), so any
	// number of ports may eject concurrently — one flit per PC.
	usedIn := r.usedIn
	for i := range usedIn {
		usedIn[i] = false
	}
	for pi, port := range r.in {
		if r.portOcc[pi] == 0 {
			continue
		}
		for _, v := range port {
			if v.q.len() == 0 || v.route != ejectOut {
				continue
			}
			if v.q.front().arrived+int64(r.cfg.Stages) > now {
				continue
			}
			usedIn[pi] = true
			r.traverse(v, pi, 0, true, now)
			break
		}
	}

	// Phase B2: switch allocation for neighbor outputs.
	for o := 0; o < r.numPorts; o++ {
		if r.neighbor[o] == nil {
			continue
		}
		v, pi := r.pickWinner(o, now)
		if v == nil {
			continue
		}
		usedIn[pi] = true
		r.traverse(v, pi, o, false, now)
	}

	// Stay active while any flit is buffered.
	return r.occ > 0
}

// assignRoute computes the output for a head flit (lookahead routing is
// folded into the single-cycle budget) and sets up multicast delivery.
func (r *Router) assignRoute(v *vcState, pkt *flit.Packet) {
	if pkt.Dst == r.ID {
		v.route = ejectOut
	} else {
		p, ok := r.tb.NextPort(r.topo, r.ID, pkt.Dst)
		if !ok || r.neighbor[p] == nil {
			panic(fmt.Sprintf("router %d: no route for %v (port %d)", r.ID, pkt, p))
		}
		v.route = p
		idx := v.port*r.cfg.VCsPerPC + v.idx
		r.reqMask[p][idx>>6] |= 1 << uint(idx&63)
		// Path multicast: deliver a replica to the local bank when this
		// router lies on the destination column/spike.
		if pkt.PathDeliver && r.topo.SameColumn(r.ID, pkt.Dst) {
			v.replNeed = true
			rp := r.pool.Get()
			rp.ID, rp.Kind, rp.Src, rp.Dst = pkt.ID, pkt.Kind, pkt.Src, r.ID
			rp.DstEp, rp.DstPos, rp.Addr = flit.ToBank, pkt.DstPos, pkt.Addr
			rp.Payload, rp.Injected = pkt.Payload, pkt.Injected
			v.replPkt = rp
		}
	}
}

// allocVC claims a free downstream VC for the packet.
func (r *Router) allocVC(v *vcState, pkt *flit.Packet, now int64) {
	o := r.out[v.route]
	for i := range o.owner {
		if o.owner[i] == nil {
			o.owner[i] = pkt
			v.outVC = i
			r.tel.VCAllocated(now, pkt, int(r.ID), v.route, i)
			return
		}
	}
}

// allocReplica implements the hybrid replication scheme: steal a free VC
// of a different PC of this router. Only ports fed by a real link have
// buffers; a VC is free when its queue is empty, it has no route in
// progress, and the upstream router is not using it (full credits, no
// owner). Stealing claims the VC at the upstream to keep credit accounting
// exact; the claim is released when the replica's tail flit ejects.
func (r *Router) allocReplica(v *vcState, inPort int) {
	n := r.numPorts
	for k := 0; k < n; k++ {
		p := (r.replRR + k) % n
		if p == inPort || r.upstream[p] == nil {
			continue // must be a different, physically present PC
		}
		uo := r.upstream[p].out[r.upstreamOP[p]]
		for _, cand := range r.in[p] {
			if cand.q.len() != 0 || cand.route != unassigned {
				continue
			}
			if uo.owner[cand.idx] != nil || uo.credits[cand.idx] != r.cfg.BufDepth {
				continue
			}
			uo.owner[cand.idx] = v.replPkt
			v.replPort = p
			v.replVC = cand.idx
			r.replRR = (p + 1) % n
			return
		}
	}
	r.stats.ReplicaBlocked++
}

// pickWinner round-robin arbitrates input VCs requesting neighbor output
// o. The request mask holds exactly the VCs with an assigned route to o,
// so arbitration touches only actual requesters (usually zero or one)
// instead of scanning every VC of every port; iteration order over the
// mask is the same circular (port, VC) order as the full scan, so grants
// — and therefore simulation results — are unchanged.
func (r *Router) pickWinner(o int, now int64) (*vcState, int) {
	words := r.reqMask[o]
	nVC := r.cfg.VCsPerPC
	total := len(r.in) * nVC
	start := r.rrOut[o]
	sw, sb := start>>6, uint(start&63)
	nw := len(words)
	for step := 0; step <= nw; step++ {
		wi := sw + step
		if wi >= nw {
			wi -= nw
		}
		w := words[wi]
		if step == 0 {
			w &= ^uint64(0) << sb // bits at or after the RR pointer
		} else if step == nw {
			if sb == 0 {
				break
			}
			w &= 1<<sb - 1 // wrapped: bits before the RR pointer
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			idx := wi<<6 | b
			pi := idx / nVC
			if r.usedIn[pi] {
				continue
			}
			v := r.in[pi][idx%nVC]
			if v.q.len() == 0 {
				continue
			}
			e := v.q.front()
			if e.arrived+int64(r.cfg.Stages) > now {
				continue
			}
			if v.outVC == unassigned {
				continue
			}
			if r.out[o].credits[v.outVC] <= 0 {
				r.stats.CreditStalls++
				continue
			}
			if v.replNeed {
				if v.replPort == unassigned {
					continue // replication blocked: hold the flit
				}
				if r.in[v.replPort][v.replVC].q.len() >= r.cfg.BufDepth {
					continue // stolen VC momentarily full
				}
			}
			next := idx + 1
			if next == total {
				next = 0
			}
			r.rrOut[o] = next
			return v, pi
		}
	}
	return nil, 0
}

// traverse moves the winning flit through the crossbar: to the neighbor's
// input buffer or to local ejection, spawning the multicast replica and
// returning the drained slot's credit upstream.
func (r *Router) traverse(v *vcState, pi, o int, isEject bool, now int64) {
	e := v.q.pop()
	r.occ--
	r.portOcc[pi]--
	r.stats.FlitsRouted++

	// Credit return for the drained slot (visible next cycle).
	if up := r.upstream[pi]; up != nil {
		uo := up.out[r.upstreamOP[pi]]
		r.k.DeferIncr(&uo.credits[v.idx])
		r.k.Activate(up.kid)
	}

	// Multicast replica: copy the flit into the stolen VC. The slot is
	// charged against the upstream's credits for that VC so the stolen
	// buffer space stays consistent; the drain path returns it.
	if v.replNeed && v.replPort != unassigned {
		rf := e.f
		rf.Pkt = v.replPkt
		r.pushFlit(v.replPort, v.replVC, entry{f: rf, arrived: now})
		up := r.upstream[v.replPort]
		up.out[r.upstreamOP[v.replPort]].credits[v.replVC]--
		r.stats.ReplicasSpawned++
		r.tel.ReplicaForked(now, rf, int(r.ID), v.replPort, v.replVC)
		r.k.Activate(r.kid)
		if e.f.Tail {
			// Replica complete; upstream claim is released when the
			// replica's tail ejects (see below).
			v.replNeed = false
		}
	}

	if isEject {
		pkt := e.f.Pkt
		// Emit before deliver: delivery can synchronously inject a
		// response, and the trace must stay in chronological order.
		r.tel.FlitEjected(now, e.f, int(r.ID), pi)
		if e.f.Head {
			// Cut-through endpoint interface: the endpoint starts
			// processing at head arrival; body flits drain behind it
			// (they still hold buffers and links until ejected).
			pkt.Delivered = now
			r.stats.PacketsEjected++
			if r.deliver == nil {
				panic(fmt.Sprintf("router %d: ejection with no endpoint for %v", r.ID, pkt))
			}
			r.deliver(pkt, now)
		}
		if e.f.Tail {
			// Release an upstream claim made for a stolen (replica) VC:
			// the replica packet owns the upstream out-VC entry.
			if up := r.upstream[pi]; up != nil {
				uo := up.out[r.upstreamOP[pi]]
				if uo.owner[v.idx] == pkt {
					uo.owner[v.idx] = nil
				}
			}
			r.resetRoute(v)
			// Replica packets were minted from the pool in assignRoute
			// and are fully consumed at tail ejection; recycle them.
			// Put ignores packets that did not come from the pool.
			r.pool.Put(pkt)
		}
		return
	}

	n := r.neighbor[o]
	out := r.out[o]
	r.tel.FlitRouted(now, e.f, int(r.ID), o, v.outVC)
	out.credits[v.outVC]--
	arr := now + int64(r.linkDelay[o]-1)
	n.pushFlit(r.neighborIn[o], v.outVC, entry{f: e.f, arrived: arr})
	r.k.Activate(n.kid)
	if e.f.Tail {
		out.owner[v.outVC] = nil
		r.resetRoute(v)
	}
}
