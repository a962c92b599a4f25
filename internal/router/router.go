// Package router holds the table of router microarchitectures
// (registry.go): Engine implementations the network layer
// selects by name — the paper's VC wormhole router (this file, the
// default), a bufferless deflection router (bufferless.go), and a
// minimal two-entry-latch ring router (ringlite.go); the last two share
// one whole-packet latch core (latch.go).
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
// grant sees the sequence the straightforward nested scan saw. A tick
// that finds a single occupied VC takes it straight through allocation
// and traversal with nothing to arbitrate.
//
// A router is ticked only on cycles where some front flit is ready, so
// every tick can move a flit or count a stall. pushFlit wakes the
// receiving router at the flit's ready cycle (arrival plus Stages); a
// tick re-arms for the next cycle only while a front flit will be ready
// then; and a credit return wakes nobody, because a router waiting on a
// credit holds a ready flit and is ticking already. A tick with no ready
// front flit would mutate nothing, so skipping it changes no state and no
// counter. VC queues are ring buffers carved from one per-router slab,
// credit returns go through the kernel's typed DeferIncr, and multicast
// replica packets are recycled through a per-run flit.PacketPool. All of
// it is decision-for-decision identical to the straightforward
// implementation it replaced — the regression goldens and the
// run-invariance matrix in internal/core and the lockstep tests in this
// package are the proof.
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
	// Engine names the router microarchitecture ("vc-wormhole",
	// "bufferless" or "ring-lite"). Empty selects DefaultEngine, so
	// existing configs keep simulating the paper's wormhole router
	// unchanged.
	Engine string
}

// DefaultConfig returns the Table 1 router parameters.
func DefaultConfig() Config {
	return Config{VCsPerPC: 4, BufDepth: 4, Stages: 1}
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
	ReplicasSpawned uint64 // multicast flit copies placed into stolen VCs
	ReplicaBlocked  uint64 // cycles a multicast flit stalled with no free VC
	CreditStalls    uint64 // cycles the switch winner had no downstream credit
	Deflections     uint64 // flits granted a non-productive port (bufferless misroutes)
}

// Merge adds o's counters into s. Commutative and associative, so
// aggregates over routers or over runs combine in any order.
func (s *Stats) Merge(o Stats) {
	s.FlitsRouted += o.FlitsRouted
	s.ReplicasSpawned += o.ReplicasSpawned
	s.ReplicaBlocked += o.ReplicaBlocked
	s.CreditStalls += o.CreditStalls
	s.Deflections += o.Deflections
}

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

	// arbitrateAlways makes Tick take the general three-phase path even
	// when one VC holds every flit; set only by tests, which hold the two
	// paths to the same decisions.
	arbitrateAlways bool
	// wakeEager restores the wake-up rule that predates parking: stay
	// active while any flit is buffered, wake a router on the cycle after
	// a flit is pushed into it, and wake the upstream on a credit return
	// when it holds a flit. Set only by tests, which hold the two rules to
	// the same decisions.
	wakeEager bool
	// ticks counts Tick calls and unready those that found no ready front
	// flit; tests read them to show that parking skips exactly the ticks
	// that could do nothing.
	ticks, unready uint64
}

// injRingFlits is the starting capacity of an injection VC's ring: room
// for a burst of block packets, so a run does not regrow the rings of
// the routers that inject the most.
const injRingFlits = 4 * flit.BlockFlits

// base is the plumbing the three engines share: identity, the routing
// table and kernel handles, the per-out-port link wiring, the ejection
// sink, the replica pool, the probe collector, and the counters.
// Engines embed it by value — no extra heap object, no pointer hop on the
// hot path — and keep their own buffers, typed neighbor pointers, Wire,
// Inject and Tick.
type base struct {
	ID   topology.NodeID
	cfg  Config
	topo *topology.Topology
	tb   *routing.Table
	k    *sim.Kernel
	kid  int // set by the engine's constructor, which registers it with k

	numPorts   int   // neighbor ports (injection is index numPorts)
	neighborIn []int // per out port: in-port index at the neighbor
	linkDelay  []int // per out port

	sink Sink
	pool *flit.PacketPool
	tel  *telemetry.Collector // nil when probes are disabled

	occ   int // flits buffered here, injection queue included
	stats Stats
}

// newBase fills the shared part of an unwired engine from its arena,
// replica pool included.
func newBase(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, s Sink, ar *Arena) base {
	np := topo.NumPorts(id)
	return base{
		ID: id, cfg: cfg.withDefaults(), topo: topo, tb: tb, k: k,
		numPorts:   np,
		neighborIn: ar.intSlab(np),
		linkDelay:  ar.intSlab(np),
		sink:       s,
		pool:       ar.Packets(),
	}
}

// deliver hands a packet ejected here to the sink.
func (b *base) deliver(pkt *flit.Packet, now int64) {
	if b.sink == nil {
		panic(fmt.Sprintf("router %d: ejection with no endpoint for %v", b.ID, pkt))
	}
	b.sink.Eject(b.ID, pkt, now)
}

// replica mints from the pool the copy of path-multicast packet pkt that
// router dst hands its local bank.
func (b *base) replica(pkt *flit.Packet, dst topology.NodeID) *flit.Packet {
	rp := b.pool.Get()
	rp.ID, rp.Kind, rp.Src, rp.Dst = pkt.ID, pkt.Kind, pkt.Src, dst
	rp.DstEp, rp.DstPos, rp.Addr = flit.ToBank, pkt.DstPos, pkt.Addr
	rp.Payload, rp.Injected = pkt.Payload, pkt.Injected
	return rp
}

// SetTelemetry installs the probe collector (nil disables all probes).
func (b *base) SetTelemetry(c *telemetry.Collector) { b.tel = c }

// Stats returns a copy of the router's counters.
func (b *base) Stats() Stats { return b.stats }

// Occupancy returns the flits buffered here, injection queue included.
func (b *base) Occupancy() int { return b.occ }

// New creates an unwired router registered with k that ejects into s;
// the network package connects its neighbors. Routers
// consume routing only through a precomputed table (routing.Precompute),
// never a raw algorithm: route lookup is a flat array index regardless
// of the topology family. The arena supplies the backing storage for
// every construction-time slice and the replica pool (see Arena).
func New(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, s Sink, ar *Arena) *Router {
	b := newBase(id, topo, tb, cfg, k, s, ar)
	cfg, np := b.cfg, b.numPorts
	nVC := cfg.VCsPerPC
	words := ((np+1)*nVC + 63) / 64
	r := node(&ar.routers)
	*r = Router{
		base: b,
		nVC:  nVC, bufDepth: cfg.BufDepth, stages: int64(cfg.Stages),
		vcs:        ar.vcSlab((np + 1) * nVC),
		credits:    ar.intSlab(np * nVC),
		owner:      ar.pktSlab(np * nVC),
		neighbor:   ar.linkSlab(np),
		upstream:   ar.linkSlab(np + 1),
		upstreamOP: ar.intSlab(np + 1),
		rrOut:      ar.intSlab(np + 1),
		usedIn:     ar.boolSlab(np + 1),
		occMask:    ar.wordSlab(words),
		ejMask:     ar.wordSlab(words),
		reqMask:    ar.wordSlab(np * words),
		reqCnt:     ar.intSlab(np),
	}
	// All VC rings share one backing slab: one allocation per router.
	// Neighbor-fed VCs (bounded at BufDepth by credit flow control) never
	// grow past their carved slice; the unbounded injection VCs start at
	// injRingFlits.
	injCap := max(cfg.BufDepth, injRingFlits)
	slab := ar.entrySlab(np*nVC*cfg.BufDepth + nVC*injCap)
	for i := range r.vcs {
		v := &r.vcs[i]
		n := cfg.BufDepth
		if i >= np*nVC {
			n = injCap
		}
		v.q.buf, slab = slab[:n:n], slab[n:]
		v.port = int32(i / nVC)
		v.route, v.outVC, v.repl = unassigned, unassigned, unassigned
	}
	for i := range r.credits {
		r.credits[i] = cfg.BufDepth
	}
	r.kid = k.Register(r)
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

// pushFlit buffers e into vcs[idx], maintaining occupancy, and wakes the
// router on the cycle the flit becomes ready.
func (r *Router) pushFlit(idx int, e entry) {
	r.vcs[idx].q.push(e)
	r.occMask[idx>>6] |= 1 << uint(idx&63)
	r.occ++
	if r.wakeEager {
		r.k.Activate(r.kid)
	} else {
		r.k.WakeAt(e.arrived+r.stages, r.kid)
	}
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
	r.ticks++
	// A router holding no flit has nothing to route, count or grant. Only
	// the wakeEager rule ticks one.
	if r.occ == 0 {
		r.unready++
		return false
	}
	ready := now - r.stages // a flit is ready once arrived <= ready
	// Most ticks find a single occupied VC (DESIGN.md §3d); it needs no
	// arbitration.
	if idx := r.soleVC(); idx >= 0 && !r.arbitrateAlways {
		if !r.tickOne(idx, ready, now) {
			r.unready++
		}
		return r.stayActive(now)
	}

	// Phase A: routing, VC allocation, multicast replica allocation for
	// the flit at the front of each VC. With no front flit ready, both
	// phases B would find nothing either.
	anyReady := false
	for wi, w := range r.occMask {
		for ; w != 0; w &= w - 1 {
			if r.allocate(wi<<6|bits.TrailingZeros64(w), ready, now) {
				anyReady = true
			}
		}
	}
	if !anyReady {
		r.unready++
		return r.stayActive(now)
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
	return r.stayActive(now)
}

// stayActive reports whether the router must tick on the cycle after
// now: while some front flit will be ready then. Any other buffered flit
// is still crossing its link, and pushFlit scheduled a wake-up for the
// cycle it becomes ready.
func (r *Router) stayActive(now int64) bool {
	if r.wakeEager {
		return r.occ > 0
	}
	next := now + 1 - r.stages
	for wi, w := range r.occMask {
		for ; w != 0; w &= w - 1 {
			if r.vcs[wi<<6|bits.TrailingZeros64(w)].q.front().arrived <= next {
				return true
			}
		}
	}
	return false
}

// soleVC returns the vcs index of the only occupied VC, or -1 when none
// or several hold flits.
func (r *Router) soleVC() int {
	idx := -1
	for wi, w := range r.occMask {
		if w == 0 {
			continue
		}
		if idx >= 0 || w&(w-1) != 0 {
			return -1
		}
		idx = wi<<6 | bits.TrailingZeros64(w)
	}
	return idx
}

// tickOne is Tick for a router whose only occupied VC is vcs[idx]. With
// one candidate there is nothing to arbitrate: the VC gets phase A's
// allocation, then ejects, or passes the switch-allocation checks
// pickWinner would make for it and traverses. That is the general
// path's exact outcome — nothing pushed during the tick is ready before
// the next cycle, so no second VC can join in — without its mask walks.
// It reports whether the front flit was ready.
func (r *Router) tickOne(idx int, ready, now int64) bool {
	if !r.allocate(idx, ready, now) {
		return false
	}
	v := &r.vcs[idx]
	switch v.route {
	case unassigned: // never routed: no candidate for either phase B
	case ejectOut:
		r.traverse(idx, 0, true, now)
	default:
		if o := int(v.route); r.grantable(v, o) {
			r.grant(o, idx)
			r.traverse(idx, o, false, now)
		}
	}
	return true
}

// allocate is phase A for vcs[idx]: once its front flit is ready, route
// a head and claim the downstream VC and any multicast replica VC the
// packet still lacks. It reports whether the front flit is ready.
func (r *Router) allocate(idx int, ready, now int64) bool {
	v := &r.vcs[idx]
	e := v.q.front()
	if e.arrived > ready {
		return false
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
	return true
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
		v.replPkt = r.replica(pkt, r.ID)
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
			if r.usedIn[v.port] || v.q.front().arrived > ready || !r.grantable(v, o) {
				continue
			}
			r.grant(o, idx)
			return idx
		}
	}
	return -1
}

// grantable applies switch allocation's checks to a ready VC routed to
// neighbor output o: it needs a downstream VC and a credit for it (a
// missing credit counts a stall), and a multicast flit waits while its
// replica VC is unallocated or momentarily full.
func (r *Router) grantable(v *vcState, o int) bool {
	if v.outVC == unassigned {
		return false
	}
	if r.credits[o*r.nVC+int(v.outVC)] <= 0 {
		r.stats.CreditStalls++
		return false
	}
	return !v.replNeed || (v.repl != unassigned && r.vcs[v.repl].q.len() < r.bufDepth)
}

// grant moves output o's round-robin pointer past its winner vcs[idx].
func (r *Router) grant(o, idx int) {
	next := idx + 1
	if next == len(r.vcs) {
		next = 0
	}
	r.rrOut[o] = next
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

	// Credit return for the drained slot (visible next cycle). It wakes
	// nobody: an upstream waiting on this credit holds a ready flit, so
	// it is ticking already.
	up, slot := r.upSlot(pi, idx-pi*r.nVC)
	if up != nil {
		r.k.DeferIncr(&up.credits[slot])
		if r.wakeEager && up.occ > 0 {
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
	if e.f.Tail {
		r.owner[oc] = nil
		r.resetRoute(idx)
	}
}
