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
// The router's steady-state cycle is allocation-free and touches only the
// VCs that have work. All VCs of a router are one flat slice indexed
// port*VCsPerPC+vc, and three bit masks over that index replace scanning
// it: occMask (queue non-empty) drives routing and VC allocation,
// occMask&ejMask (routed to the local endpoint) drives ejection, and a
// per-output reqMask (routed to that output) with its popcount reqCnt
// lets switch allocation skip outputs nobody asked for. Ascending bit
// order is the (port, VC) scan order, so every allocation and round-robin
// grant sees the sequence the straightforward nested scan saw. A router
// holding no flit is never woken by a credit return, and ticking one is
// a no-op. VC queues are ring buffers carved from one per-router slab,
// credit returns go through the kernel's typed DeferIncr, and multicast
// replica packets are recycled through a per-run flit.PacketPool. All of
// it is decision-for-decision identical to the straightforward
// implementation it replaced — the byte-identical determinism regression
// in internal/core is the proof.
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
	q     flitRing
	port  int32 // input port this VC belongs to
	route int32 // assigned output (port index, ejectOut) or unassigned
	outVC int32 // downstream VC for neighbor routes
	// Multicast replication state for the packet at the head.
	repl     int32 // index in vcs of the stolen VC, unassigned if none yet
	replNeed bool
	replPkt  *flit.Packet
}

// Router is one node of the interconnect. Wire one with the network
// package; it is a sim.Component ticked on active cycles.
type Router struct {
	base

	nVC, bufDepth int   // cfg.VCsPerPC, cfg.BufDepth
	stages        int64 // cfg.Stages

	vcs []vcState // [port*nVC+vc]; last port is injection
	// Downstream VC pool of every neighbor output, [out*nVC+vc].
	credits []int
	owner   []*flit.Packet

	neighbor   []*Router // per out port, nil if no link
	upstream   []*Router // per in port, nil if none feeds it
	upstreamOP []int     // upstream's out-port index

	rrOut  []int // round-robin pointer per output (incl. eject)
	injVC  int   // round-robin injection VC
	replRR int

	usedIn []bool // per-cycle switch-allocation scratch
	// Work masks, one bit per vcs index (a word holds 64 VCs).
	occMask []uint64 // queue non-empty: set in pushFlit, cleared in traverse
	ejMask  []uint64 // route == ejectOut: set in assignRoute, cleared in resetRoute
	reqMask []uint64 // [out*len(occMask)+word]: route == out, same owners as ejMask
	reqCnt  []int    // per neighbor out: popcount of its reqMask words
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
	nVC := cfg.VCsPerPC
	words := ((np+1)*nVC + 63) / 64
	r := &Router{
		base: b,
		nVC:  nVC, bufDepth: cfg.BufDepth, stages: int64(cfg.Stages),
		vcs:        ar.vcSlab((np + 1) * nVC),
		credits:    ar.intSlab(np * nVC),
		owner:      ar.pktSlab(np * nVC),
		neighbor:   make([]*Router, np),
		upstream:   make([]*Router, np+1),
		upstreamOP: ar.intSlab(np + 1),
		rrOut:      ar.intSlab(np + 1),
		usedIn:     ar.boolSlab(np + 1),
		occMask:    ar.wordSlab(words),
		ejMask:     ar.wordSlab(words),
		reqMask:    ar.wordSlab(np * words),
		reqCnt:     ar.intSlab(np),
	}
	// All VC rings share one backing slab: one allocation per router,
	// and neighbor-fed VCs (bounded at BufDepth by credit flow control)
	// never grow past their carved slice.
	slab := ar.entrySlab(len(r.vcs) * cfg.BufDepth)
	for i := range r.vcs {
		v := &r.vcs[i]
		v.q.buf, slab = slab[:cfg.BufDepth:cfg.BufDepth], slab[cfg.BufDepth:]
		v.port = int32(i / nVC)
		v.route, v.outVC, v.repl = unassigned, unassigned, unassigned
	}
	for i := range r.credits {
		r.credits[i] = cfg.BufDepth
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

// upSlot returns the router feeding in-port pi (nil for the injection
// port) and the index of its credits/owner entry for that port's VC vi.
func (r *Router) upSlot(pi, vi int) (*Router, int) {
	return r.upstream[pi], r.upstreamOP[pi]*r.nVC + vi
}

// resetRoute clears the routing state of vcs[idx], removing it from the
// eject mask or its output's request mask.
func (r *Router) resetRoute(idx int) {
	v := &r.vcs[idx]
	bit := uint64(1) << uint(idx&63)
	if v.route == ejectOut {
		r.ejMask[idx>>6] &^= bit
	} else if v.route >= 0 {
		r.reqMask[int(v.route)*len(r.occMask)+idx>>6] &^= bit
		r.reqCnt[v.route]--
	}
	v.route, v.outVC, v.repl = unassigned, unassigned, unassigned
	v.replNeed = false
	v.replPkt = nil
}

// pushFlit buffers e into vcs[idx], maintaining occupancy.
func (r *Router) pushFlit(idx int, e entry) {
	r.vcs[idx].q.push(e)
	r.occMask[idx>>6] |= 1 << uint(idx&63)
	r.occ++
}

// Inject queues a packet's flits at the injection port (called by the
// network on Send). Injection queues are unbounded: the NI is the source.
func (r *Router) Inject(p *flit.Packet, now int64) {
	idx := r.numPorts*r.nVC + r.injVC
	r.injVC++
	if r.injVC == r.nVC {
		r.injVC = 0
	}
	n := p.Flits()
	for i := 0; i < n; i++ {
		f := flit.Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == n-1}
		r.pushFlit(idx, entry{f: f, arrived: now})
		r.tel.FlitInjected(now, f, int(r.ID))
	}
	r.k.Activate(r.kid)
}

const ejectOut = 1 << 20 // sentinel route value for local ejection

// Tick performs one router cycle: route computation + VC allocation for
// head flits, then switch allocation and traversal (one grant per output,
// at most one flit per input PC — VCs of a PC share a crossbar port).
//
// Each phase walks a mask one word at a time from a copy of the word.
// The copy cannot miss work: whatever is pushed during the tick (a
// replica copy, a response deliver injects synchronously, a neighbor's
// traversal) carries arrived >= now and is not ready before the next
// cycle, and only traverse on a VC itself pops it or resets its route.
func (r *Router) Tick(now int64) bool {
	// A router holding no flit has nothing to route, count or grant;
	// the tick mutates nothing, which is why traverse need not wake one.
	if r.occ == 0 {
		return false
	}
	ready := now - r.stages // a flit is ready once arrived <= ready

	// Phase A: routing, VC allocation, multicast replica allocation for
	// the flit at the front of each VC.
	for wi, w := range r.occMask {
		for ; w != 0; w &= w - 1 {
			idx := wi<<6 | bits.TrailingZeros64(w)
			v := &r.vcs[idx]
			e := v.q.front()
			if e.arrived > ready {
				continue
			}
			if e.f.Head && v.route == unassigned {
				r.assignRoute(idx, e.f.Pkt)
			}
			if v.route != unassigned && v.route != ejectOut && v.outVC == unassigned {
				r.allocVC(v, e.f.Pkt, now)
			}
			if v.replNeed && v.repl == unassigned {
				r.allocReplica(v)
			}
		}
	}

	// Phase B1: ejection. Each input PC has its own channel into the
	// local endpoint interface (the NI is as wide as the input side, and
	// the halo hub's controller exposes one interface per spike), so any
	// number of ports may eject concurrently — one flit per PC, the
	// lowest ready VC of the port.
	usedIn := r.usedIn
	clear(usedIn)
	for wi, w := range r.occMask {
		for w &= r.ejMask[wi]; w != 0; w &= w - 1 {
			idx := wi<<6 | bits.TrailingZeros64(w)
			v := &r.vcs[idx]
			if usedIn[v.port] || v.q.front().arrived > ready {
				continue
			}
			usedIn[v.port] = true
			r.traverse(idx, 0, true, now)
		}
	}

	// Phase B2: switch allocation for the neighbor outputs some VC is
	// routed to (assignRoute admits only wired outputs).
	for o, n := range r.reqCnt {
		if n == 0 {
			continue
		}
		if idx := r.pickWinner(o, ready); idx >= 0 {
			usedIn[r.vcs[idx].port] = true
			r.traverse(idx, o, false, now)
		}
	}

	// Stay active while any flit is buffered.
	return r.occ > 0
}

// assignRoute computes the output for the head flit of vcs[idx]
// (lookahead routing is folded into the single-cycle budget) and sets up
// multicast delivery.
func (r *Router) assignRoute(idx int, pkt *flit.Packet) {
	v := &r.vcs[idx]
	bit := uint64(1) << uint(idx&63)
	if pkt.Dst == r.ID {
		v.route = ejectOut
		r.ejMask[idx>>6] |= bit
		return
	}
	p, ok := r.tb.NextPort(r.topo, r.ID, pkt.Dst)
	if !ok || r.neighbor[p] == nil {
		panic(fmt.Sprintf("router %d: no route for %v (port %d)", r.ID, pkt, p))
	}
	v.route = int32(p)
	r.reqMask[p*len(r.occMask)+idx>>6] |= bit
	r.reqCnt[p]++
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

// allocVC claims a free downstream VC for the packet.
func (r *Router) allocVC(v *vcState, pkt *flit.Packet, now int64) {
	owner := r.owner[int(v.route)*r.nVC:][:r.nVC]
	for i := range owner {
		if owner[i] == nil {
			owner[i] = pkt
			v.outVC = int32(i)
			r.tel.VCAllocated(now, pkt, int(r.ID), int(v.route), i)
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
func (r *Router) allocReplica(v *vcState) {
	n := r.numPorts
	for k := 0; k < n; k++ {
		p := r.replRR + k
		if p >= n {
			p -= n
		}
		up, slot := r.upSlot(p, 0)
		if p == int(v.port) || up == nil {
			continue // must be a different, physically present PC
		}
		for vi := 0; vi < r.nVC; vi++ {
			ci := p*r.nVC + vi
			if cand := &r.vcs[ci]; cand.q.len() != 0 || cand.route != unassigned {
				continue
			}
			if up.owner[slot+vi] != nil || up.credits[slot+vi] != r.bufDepth {
				continue
			}
			up.owner[slot+vi] = v.replPkt
			v.repl = int32(ci)
			r.replRR = p + 1
			if r.replRR == n {
				r.replRR = 0
			}
			return
		}
	}
	r.stats.ReplicaBlocked++
}

// pickWinner round-robin arbitrates the non-empty input VCs routed to
// neighbor output o and returns the winner's vcs index, -1 if none can
// go. Iteration order over the mask is the same circular (port, VC)
// order as a full scan from the round-robin pointer, so grants — and
// therefore simulation results — are unchanged.
func (r *Router) pickWinner(o int, ready int64) int {
	nw := len(r.occMask)
	words := r.reqMask[o*nw:][:nw]
	start := r.rrOut[o]
	sw, sb := start>>6, uint(start&63)
	for step := 0; step <= nw; step++ {
		wi := sw + step
		if wi >= nw {
			wi -= nw
		}
		w := words[wi] & r.occMask[wi]
		if step == 0 {
			w &= ^uint64(0) << sb // bits at or after the RR pointer
		} else if step == nw {
			if sb == 0 {
				break
			}
			w &= 1<<sb - 1 // wrapped: bits before the RR pointer
		}
		for ; w != 0; w &= w - 1 {
			idx := wi<<6 | bits.TrailingZeros64(w)
			v := &r.vcs[idx]
			if r.usedIn[v.port] || v.q.front().arrived > ready || v.outVC == unassigned {
				continue
			}
			if r.credits[o*r.nVC+int(v.outVC)] <= 0 {
				r.stats.CreditStalls++
				continue
			}
			// Replication blocked, or the stolen VC momentarily full:
			// hold the flit.
			if v.replNeed && (v.repl == unassigned || r.vcs[v.repl].q.len() >= r.bufDepth) {
				continue
			}
			next := idx + 1
			if next == len(r.vcs) {
				next = 0
			}
			r.rrOut[o] = next
			return idx
		}
	}
	return -1
}

// traverse moves the front flit of vcs[idx] through the crossbar: to the
// neighbor's input buffer or to local ejection, spawning the multicast
// replica and returning the drained slot's credit upstream.
func (r *Router) traverse(idx, o int, isEject bool, now int64) {
	v := &r.vcs[idx]
	pi := int(v.port)
	e := v.q.pop()
	if v.q.len() == 0 {
		r.occMask[idx>>6] &^= 1 << uint(idx&63)
	}
	r.occ--
	r.stats.FlitsRouted++

	// Credit return for the drained slot (visible next cycle). The
	// upstream is woken only if it holds a flit the credit could unblock.
	up, slot := r.upSlot(pi, idx-pi*r.nVC)
	if up != nil {
		r.k.DeferIncr(&up.credits[slot])
		if up.occ > 0 {
			r.k.Activate(up.kid)
		}
	}

	// Multicast replica: copy the flit into the stolen VC. The slot is
	// charged against the upstream's credits for that VC so the stolen
	// buffer space stays consistent; the drain path returns it.
	if v.replNeed && v.repl != unassigned {
		rf := e.f
		rf.Pkt = v.replPkt
		ri := int(v.repl)
		rp := int(r.vcs[ri].port)
		rv := ri - rp*r.nVC
		r.pushFlit(ri, entry{f: rf, arrived: now})
		rup, rslot := r.upSlot(rp, rv)
		rup.credits[rslot]--
		r.stats.ReplicasSpawned++
		r.tel.ReplicaForked(now, rf, int(r.ID), rp, rv)
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
			if up != nil && up.owner[slot] == pkt {
				up.owner[slot] = nil
			}
			r.resetRoute(idx)
			// Replica packets were minted from the pool in assignRoute
			// and are fully consumed at tail ejection; recycle them.
			// Put ignores packets that did not come from the pool.
			r.pool.Put(pkt)
		}
		return
	}

	n := r.neighbor[o]
	oc := o*r.nVC + int(v.outVC)
	r.tel.FlitRouted(now, e.f, int(r.ID), o, int(v.outVC))
	r.credits[oc]--
	arr := now + int64(r.linkDelay[o]-1)
	n.pushFlit(r.neighborIn[o]*r.nVC+int(v.outVC), entry{f: e.f, arrived: arr})
	r.k.Activate(n.kid)
	if e.f.Tail {
		r.owner[oc] = nil
		r.resetRoute(idx)
	}
}
