// Package network assembles routers over a topology into a working
// interconnect: it wires links, registers routers with the simulation
// kernel, attaches protocol endpoints (banks, the cache controller, the
// memory controller) to routers, and provides packet injection.
package network

import (
	"fmt"

	"nucanet/internal/flit"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
)

// Endpoint receives packets ejected at its router.
//
// Ownership: pkt belongs to the network. The router returns it to the
// packet pool as soon as it is fully ejected, so Deliver must not keep
// pkt (or a pointer into it) after it returns; whatever must outlive the
// call — the payload, the address — is copied out. The payload itself is
// the sender's and is not recycled.
type Endpoint interface {
	Deliver(pkt *flit.Packet, now int64)
}

// Stats aggregates network-level counters.
type Stats struct {
	PacketsInjected  uint64
	PacketsDelivered uint64
	FlitsInjected    uint64
	Router           router.Stats // summed over all routers
}

// Merge adds o's counters into s, including the per-router rollup.
// Commutative and associative: multi-run aggregates combine in any order.
func (s *Stats) Merge(o Stats) {
	s.PacketsInjected += o.PacketsInjected
	s.PacketsDelivered += o.PacketsDelivered
	s.FlitsInjected += o.FlitsInjected
	s.Router.Merge(o.Router)
}

// Clone returns an independent copy (Stats is a plain value; Clone keeps
// the aggregation API uniform across stats types).
func (s Stats) Clone() Stats { return s }

// Network owns the routers and endpoint bindings of one interconnect.
type Network struct {
	K       *sim.Kernel
	Topo    *topology.Topology
	Alg     routing.Algorithm
	Routers []router.Engine

	eps [][3]Endpoint // [node][flit.Endpoint]
	// pool recycles every packet NewPacket hands out and every multicast
	// replica the routers mint; all routers share it.
	pool flit.PacketPool
	// Traffic counters. Per-Network state, mutated only from Send and
	// deliver, both of which run on the goroutine driving this network's
	// kernel — parallel sweeps give every run its own Network — so these
	// need no synchronization (audited: go test -race plus the engine's
	// determinism regression test in internal/core).
	nextPktID uint64
	injected  uint64
	delivered uint64
	flitsInj  uint64
}

// New builds and wires a network over topo using alg and router config cfg,
// registering every router with k. The router microarchitecture is
// selected from the registry by cfg.Engine (empty selects the default VC
// wormhole router). Construction fails if the engine name is unknown, the
// routing table cannot be built, the engine's Supports check rejects the
// (topology, config) pair, or — the static safety gate — the routes fail
// the engine's progress proof: blocking engines must pass the
// channel-dependence cycle check (routing.VerifyDeadlockFree), deflecting
// engines the livelock-freedom argument
// (routing.VerifyDeflectionLivelockFree). A configuration that could
// deadlock or livelock is rejected before a single cycle is simulated.
func New(k *sim.Kernel, topo *topology.Topology, alg routing.Algorithm, cfg router.Config) (*Network, error) {
	return NewOpts(k, topo, alg, cfg, BuildOpts{})
}

// BuildOpts tunes network construction for batch evaluation; the zero
// value is the ordinary single-run path.
type BuildOpts struct {
	// Arena, when non-nil, supplies the backing storage every router
	// carves its construction-time state from, laying a batch of
	// networks out contiguously (see router.Arena).
	Arena *router.Arena
	// Prechecked skips the static progress proof and Supports gate. Only
	// set it when Check already accepted this exact (topology, routing,
	// config) triple — core.Prepare verifies once per design and
	// core.NewInstance then builds one network per lane.
	Prechecked bool
}

// Check runs New's static construction gates — engine lookup, routing
// table precompute, the engine's progress proof (deadlock or livelock
// check), and its Supports test — without building a single router. It
// returns the precomputed table so callers can reuse it across many
// constructions of the same design.
func Check(topo *topology.Topology, alg routing.Algorithm, cfg router.Config) (*routing.Table, error) {
	eng, err := router.ByName(cfg.Engine)
	if err != nil {
		return nil, err
	}
	// Precompute the routing table once so the per-flit hot path is a
	// flat array lookup; idempotent if the caller already passed a table.
	tb, err := routing.Precompute(topo, alg)
	if err != nil {
		return nil, err
	}
	if eng.Deflecting {
		err = routing.VerifyDeflectionLivelockFree(topo, tb, eng.AgeMonotone)
	} else {
		err = routing.VerifyDeadlockFree(topo, tb)
	}
	if err != nil {
		return nil, fmt.Errorf("network: engine %q on %s: %w", eng.Name, topo.Name, err)
	}
	if eng.Supports != nil {
		if err := eng.Supports(topo, cfg); err != nil {
			return nil, fmt.Errorf("network: engine %q does not support topology %s: %w", eng.Name, topo.Name, err)
		}
	}
	return tb, nil
}

// NewOpts is New with batch-construction options (see BuildOpts).
func NewOpts(k *sim.Kernel, topo *topology.Topology, alg routing.Algorithm, cfg router.Config, o BuildOpts) (*Network, error) {
	eng, err := router.ByName(cfg.Engine)
	if err != nil {
		return nil, err
	}
	var tb *routing.Table
	if o.Prechecked {
		if tb, err = routing.Precompute(topo, alg); err != nil {
			return nil, err
		}
	} else if tb, err = Check(topo, alg, cfg); err != nil {
		return nil, err
	}
	n := &Network{K: k, Topo: topo, Alg: tb}
	n.Routers = make([]router.Engine, topo.NumNodes())
	n.eps = make([][3]Endpoint, topo.NumNodes())
	for id := 0; id < topo.NumNodes(); id++ {
		n.Routers[id] = eng.New(id, topo, tb, cfg, k, o.Arena)
		n.Routers[id].SetPool(&n.pool)
	}
	for id := 0; id < topo.NumNodes(); id++ {
		for p := 0; p < topo.NumPorts(id); p++ {
			l, ok := topo.Link(id, p)
			if !ok {
				continue
			}
			n.Routers[id].Wire(p, n.Routers[l.To], l.ToPort, l.Delay)
		}
	}
	for id := 0; id < topo.NumNodes(); id++ {
		node := id
		n.Routers[id].SetKernelID(k.Register(n.Routers[id]))
		n.Routers[id].SetDeliver(func(pkt *flit.Packet, now int64) {
			n.deliver(node, pkt, now)
		})
	}
	return n, nil
}

// MustNew is New for topology/algorithm pairs the caller knows to be
// valid (tests, examples); it panics on construction errors.
func MustNew(k *sim.Kernel, topo *topology.Topology, alg routing.Algorithm, cfg router.Config) *Network {
	n, err := New(k, topo, alg, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// SetTelemetry installs the probe collector on every router (nil
// disables all probes). Call before the simulation starts.
func (n *Network) SetTelemetry(c *telemetry.Collector) {
	for _, r := range n.Routers {
		r.SetTelemetry(c)
	}
}

// Attach binds an endpoint to a router for one endpoint class.
func (n *Network) Attach(node topology.NodeID, which flit.Endpoint, ep Endpoint) {
	n.eps[node][which] = ep
}

func (n *Network) deliver(node topology.NodeID, pkt *flit.Packet, now int64) {
	ep := n.eps[node][pkt.DstEp]
	if ep == nil {
		panic(fmt.Sprintf("network: no %v endpoint at node %d for %v", pkt.DstEp, node, pkt))
	}
	n.delivered++
	ep.Deliver(pkt, now)
}

// Send flitizes and injects a packet at its source router. The packet ID
// and injection time are stamped here.
func (n *Network) Send(pkt *flit.Packet, now int64) {
	n.nextPktID++
	pkt.ID = n.nextPktID
	pkt.Injected = now
	n.injected++
	n.flitsInj += uint64(pkt.Flits())
	n.Routers[pkt.Src].Inject(pkt, now)
}

// NewPacket is the packet factory of every protocol producer (bank
// agents, cache controllers, the memory controller, CMP ports). The
// packet comes from the network's pool and returns to it when the
// destination router has ejected it, so the caller owns it only until
// Send: set the remaining fields (Payload, DstPos, PathDeliver), send it
// exactly once, and do not touch it afterwards. A caller that wants to
// keep or reuse a packet passes Send a literal of its own instead; the
// pool ignores those.
func (n *Network) NewPacket(kind flit.Kind, src, dst topology.NodeID, ep flit.Endpoint, addr uint64) *flit.Packet {
	pkt := n.pool.Get()
	pkt.Kind, pkt.Src, pkt.Dst, pkt.DstEp, pkt.Addr = kind, src, dst, ep, addr
	return pkt
}

// InFlight returns the number of flits buffered anywhere in the network.
// Zero after quiescence — the conservation invariant checked by tests.
func (n *Network) InFlight() int {
	total := 0
	for _, r := range n.Routers {
		total += r.Occupancy()
	}
	return total
}

// PoolStats returns the packet pool's accounting. After the network
// quiesces every NewPacket packet and every replica has been returned:
// Live == 0 (the leak invariant checked by tests).
func (n *Network) PoolStats() flit.PoolStats { return n.pool.Stats() }

// Stats sums per-router counters with the network totals. Delivered counts
// include multicast replicas (one delivery per bank reached).
func (n *Network) Stats() Stats {
	s := Stats{
		PacketsInjected:  n.injected,
		PacketsDelivered: n.delivered,
		FlitsInjected:    n.flitsInj,
	}
	for _, r := range n.Routers {
		s.Router.Merge(r.Stats())
	}
	return s
}
