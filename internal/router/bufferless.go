package router

import (
	"fmt"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// Bufferless is a deflection router (BLESS-style): no virtual channels,
// no credit loop, no switch-allocation state — just route computation and
// age-based output arbitration every cycle. Packets move as single
// deflection units (the whole packet advances one hop per cycle, flit
// accounting scaled by Flits()); each input port carries only a pipeline
// latch, so buffer area is a single flit slot per port.
//
// The cycle is: eject every unit addressed to this node (one per port —
// the endpoint interface is as wide as the input side, matching the
// wormhole router's ejection model), then allocate output ports to the
// remaining arrivals oldest-first. A unit whose productive port (the
// routing table's next hop) is taken is *deflected* to the first free
// wired port scanning cyclically from the productive one, and counted in
// Stats.Deflections. Because links are bidirectional (out-degree >=
// in-degree, enforced by the engine's Supports check), every arrival is
// guaranteed some output: nothing ever waits, so the router cannot
// deadlock. Injection has lowest priority and claims a port only when one
// is left over.
//
// Livelock freedom is the age argument verified statically by
// routing.VerifyDeflectionLivelockFree: arbitration is strictly
// age-monotone — units are served oldest (Injected, ID, Dst) first — so
// the globally oldest unit in the network is also the locally oldest
// wherever it is, always wins its productive port, advances monotonically
// along its (verified loop-free) table route, and ejects within diameter
// hops. Induction on age bounds every unit's network time.
//
// Path multicast has no home in a router without buffers (a deflected
// route may skip or revisit column nodes, and the protocol requires
// exactly-once probe delivery per bank position), so PathDeliver packets
// are expanded at the source instead: Inject mints one unicast replica
// per distinct column router, each routed and delivered independently.
type Bufferless struct {
	base // occ weights buffered units by Flits

	in       []flitRing // per-port unit latches; injection queue is unbounded
	neighbor []*Bufferless
	wired    []int // wired out-port indices, ascending

	// Per-cycle scratch, reused — the hot path allocates nothing.
	cand    []blCand
	outUsed []bool
}

// blCand is one transit unit competing for an output this cycle.
type blCand struct {
	port int
	e    entry
}

func init() {
	Register(Builder{
		Name:        "bufferless",
		Description: "bufferless deflection router: age-based arbitration, no VCs, no credits",
		New: func(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) Engine {
			return newBufferless(id, topo, tb, cfg, k, ar)
		},
		Supports:    bufferlessSupports,
		Deflecting:  true,
		AgeMonotone: true,
		// One pipeline latch per port — the whole point of going bufferless.
		BufferFlitsPerPort: func(Config) int { return 1 },
	})
}

// bufferlessSupports requires every node's wired out-degree to cover its
// in-degree: at most one unit arrives per in-link per cycle, so equal (or
// greater) out capacity guarantees every arrival an output and the router
// never has to hold a unit — the no-wait property deflection rests on.
func bufferlessSupports(topo *topology.Topology, _ Config) error {
	n := topo.NumNodes()
	inDeg := make([]int, n)
	outDeg := make([]int, n)
	for v := 0; v < n; v++ {
		for p := 0; p < topo.NumPorts(v); p++ {
			if l, ok := topo.Link(v, p); ok {
				outDeg[v]++
				inDeg[l.To]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if outDeg[v] < inDeg[v] {
			return fmt.Errorf("node %d has in-degree %d but out-degree %d; deflection needs an output for every arriving unit", v, inDeg[v], outDeg[v])
		}
	}
	return nil
}

func newBufferless(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) *Bufferless {
	b := newBase(id, topo, tb, cfg, k, ar)
	np := b.numPorts
	return &Bufferless{
		base:     b,
		in:       ar.ringSlab(np + 1),
		neighbor: make([]*Bufferless, np),
		cand:     make([]blCand, 0, np+1),
		outUsed:  ar.boolSlab(np),
	}
}

// Wire connects out-port p to neighbor n and records it in the wired-port
// scan order used by deflection.
func (b *Bufferless) Wire(p int, n Engine, np, delay int) {
	nb, ok := n.(*Bufferless)
	if !ok {
		panic(fmt.Sprintf("router: bufferless router %d wired to %T (engines cannot mix within one network)", b.ID, n))
	}
	b.neighbor[p] = nb
	b.neighborIn[p] = np
	b.linkDelay[p] = delay
	b.wired = b.wired[:0]
	for o := 0; o < b.numPorts; o++ {
		if b.neighbor[o] != nil {
			b.wired = append(b.wired, o)
		}
	}
}

// Inject queues a packet at the injection interface. PathDeliver packets
// are expanded here into one unicast replica per distinct column router
// (exactly-once delivery per bank position is a protocol requirement that
// in-flight replication cannot honor once routes may deflect).
func (b *Bufferless) Inject(p *flit.Packet, now int64) {
	if p.PathDeliver {
		if col, _, ok := b.topo.ColumnOf(p.Dst); ok {
			prev := topology.NodeID(-1) // column repeats are consecutive (concentrated nodes)
			for _, n := range b.topo.Column(col) {
				if n == p.Dst || n == prev {
					continue
				}
				prev = n
				rp := b.pool.Get()
				rp.ID, rp.Kind, rp.Src, rp.Dst = p.ID, p.Kind, p.Src, n
				rp.DstEp, rp.DstPos, rp.Addr = flit.ToBank, p.DstPos, p.Addr
				rp.Payload, rp.Injected = p.Payload, p.Injected
				b.stats.ReplicasSpawned += uint64(rp.Flits())
				b.tel.ReplicaForked(now, flit.Flit{Pkt: rp, Head: true, Tail: true}, int(b.ID), b.numPorts, 0)
				b.enqueue(rp, now)
			}
		}
	}
	b.enqueue(p, now)
	b.k.Activate(b.kid)
}

func (b *Bufferless) enqueue(p *flit.Packet, now int64) {
	n := p.Flits()
	for i := 0; i < n; i++ {
		b.tel.FlitInjected(now, flit.Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == n-1}, int(b.ID))
	}
	b.in[b.numPorts].push(entry{f: flit.Flit{Pkt: p, Head: true, Tail: true}, arrived: now})
	b.occ += n
}

// Tick runs one deflection cycle: eject, then allocate outputs to transit
// units oldest-first, then inject into a leftover port if any.
func (b *Bufferless) Tick(now int64) bool {
	// Phase A: ejection and candidate collection. Each port contributes
	// its front unit; self-addressed units leave through the port's own
	// endpoint channel, the rest compete for outputs.
	cands := b.cand[:0]
	for pi := range b.in {
		q := &b.in[pi]
		if q.len() == 0 {
			continue
		}
		e := *q.front()
		if e.arrived+int64(b.cfg.Stages) > now {
			continue
		}
		if e.f.Pkt.Dst == b.ID {
			q.pop()
			b.eject(e, pi, now)
			continue
		}
		if pi == b.numPorts {
			continue // injection joins only after transit traffic is placed
		}
		cands = append(cands, blCand{port: pi, e: e})
	}

	// Oldest-first: the age-monotone order the livelock argument needs.
	// Insertion sort — the slice is at most one unit per port.
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && olderUnit(c.e.f.Pkt, cands[j].e.f.Pkt) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}

	// Phase B: output allocation. Transit arrivals are guaranteed a port
	// (out-degree >= in-degree); whoever misses its productive port is
	// deflected, never held.
	outUsed := b.outUsed
	for i := range outUsed {
		outUsed[i] = false
	}
	granted := 0
	for _, c := range cands {
		b.in[c.port].pop()
		b.route(c.e, now)
		granted++
	}

	// Phase C: injection claims a leftover output, productive if possible.
	if q := &b.in[b.numPorts]; q.len() > 0 && granted < len(b.wired) {
		e := *q.front()
		if e.arrived+int64(b.cfg.Stages) <= now {
			q.pop()
			b.route(e, now)
		}
	}

	return b.occ > 0
}

// olderUnit orders units by age: injection cycle, then packet ID, then
// destination (source-expanded replicas share their parent's ID and
// injection cycle but address distinct nodes). A strict total order over
// every unit in flight, so arbitration is deterministic and age-monotone.
func olderUnit(a, p *flit.Packet) bool {
	if a.Injected != p.Injected {
		return a.Injected < p.Injected
	}
	if a.ID != p.ID {
		return a.ID < p.ID
	}
	return a.Dst < p.Dst
}

// route sends one unit out: through its productive port when free,
// deflected to the next free wired port otherwise.
func (b *Bufferless) route(e entry, now int64) {
	pkt := e.f.Pkt
	desired := -1
	if p, ok := b.tb.NextPort(b.topo, b.ID, pkt.Dst); ok && p < b.numPorts && b.neighbor[p] != nil {
		desired = p
	}
	o := desired
	if o < 0 || b.outUsed[o] {
		o = b.firstFree(desired)
		b.stats.Deflections += uint64(pkt.Flits())
	}
	b.outUsed[o] = true
	b.occ -= pkt.Flits()
	b.stats.FlitsRouted += uint64(pkt.Flits())
	b.tel.FlitRouted(now, e.f, int(b.ID), o, 0)
	nb := b.neighbor[o]
	e.arrived = now + int64(b.linkDelay[o]-1)
	nb.in[b.neighborIn[o]].push(e)
	nb.occ += pkt.Flits()
	b.k.Activate(nb.kid)
}

// firstFree scans the wired ports cyclically from the one after desired
// (from the first wired port when there is no productive hop) and returns
// the first unclaimed output. The capacity invariant guarantees one.
func (b *Bufferless) firstFree(desired int) int {
	n := len(b.wired)
	start := 0
	if desired >= 0 {
		for i, p := range b.wired {
			if p == desired {
				start = i + 1
				break
			}
		}
	}
	for k := 0; k < n; k++ {
		o := b.wired[(start+k)%n]
		if !b.outUsed[o] {
			return o
		}
	}
	panic(fmt.Sprintf("router: bufferless router %d out of outputs (capacity invariant violated)", b.ID))
}

// eject delivers a unit to the local endpoint and recycles pooled
// replicas (probe replicas are consumed synchronously by their agents).
func (b *Bufferless) eject(e entry, pi int, now int64) {
	pkt := e.f.Pkt
	b.occ -= pkt.Flits()
	b.stats.FlitsRouted += uint64(pkt.Flits())
	b.tel.FlitEjected(now, e.f, int(b.ID), pi)
	pkt.Delivered = now
	b.stats.PacketsEjected++
	if b.deliver == nil {
		panic(fmt.Sprintf("router %d: ejection with no endpoint for %v", b.ID, pkt))
	}
	b.deliver(pkt, now)
	b.pool.Put(pkt)
}
