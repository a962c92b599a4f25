// Package cmp extends the networked cache to chip multiprocessors — the
// paper's primary stated future work ("we are planning to expand the
// study ... to include CMP environments by first analyzing the traffic
// patterns and finding suitable interconnects").
//
// N cores attach along the top row of a grid design, each co-located
// with a cache controller. Every bank-set column is *homed* on exactly
// one controller (the nearest one), preserving the single-writer column
// serialization the replacement protocols require. A core accessing a
// remotely-homed column sends its request across the top row — and, on
// hierarchical designs, over the inter-chiplet bridge ring — to the home
// controller, which runs the usual protocol and forwards the data back.
// The sharing cost is therefore *measured* on the simulated fabric,
// contention included, not approximated by an extra-hop latency model.
//
// Cores run disjoint working sets (a multiprogrammed workload, the
// common shared-NUCA evaluation): each core's tags live in a private tag
// range (OwnerStride apart), and the warm state interleaves the cores'
// hot blocks so they compete for the shared capacity from the first
// access.
//
// The package is a fabric layer, not a runner: Attach grafts ports and
// controllers onto a prebuilt cache.System, and internal/core threads it
// through Prepare/NewInstance so CMP runs inherit warm-image caching,
// telemetry, and the experiment catalogue unchanged.
package cmp

import (
	"fmt"
	"math"

	"nucanet/internal/cache"
	"nucanet/internal/cpu"
	"nucanet/internal/flit"
	"nucanet/internal/sim"
	"nucanet/internal/slab"
	"nucanet/internal/stats"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// OwnerStride separates the cores' tag spaces (far above any tag a
// generator produces in a bounded run): core i's blocks carry tags in
// [i*OwnerStride, (i+1)*OwnerStride). It aliases the cache package's
// stride so the directory policy recovers each block's owning core from
// its tag (cache.OwnerOf).
const OwnerStride = cache.OwnerStride

// OffsetAddr relocates an address into a core's private tag range. It is
// a pure function of the address map, so trace preparation can apply it
// without a built fabric.
func OffsetAddr(am trace.AddrMap, addr uint64, core int) uint64 {
	return am.Compose(am.TagOf(addr)+uint64(core)*OwnerStride,
		am.SetOf(addr), am.ColumnOf(addr))
}

// MergeWarm interleaves the cores' warm sets into one shared warm table:
// each set's ways round-robin over the cores' MRU blocks, so the cores
// compete for capacity from the first access. warm is the WarmBlocks
// table every core starts from (it does not depend on the core's seed;
// ways entries per set), relocated here into each core's tag range; the
// result feeds (*cache.System).Warm or cache.BuildWarmImage directly.
// The rows are ways-wide stripes of one backing array, each capped at
// its own stripe, so appending to a row never reaches its neighbour.
func MergeWarm(am trace.AddrMap, ways int, warm [][]uint64, cores int) [][]uint64 {
	merged := make([][]uint64, am.Columns*am.Sets)
	flat := make([]uint64, len(merged)*ways)
	for idx := range merged {
		tags := flat[idx*ways : idx*ways : (idx+1)*ways]
		for w := 0; w < ways; w++ {
			c, d := w%cores, w/cores
			if d < len(warm[idx]) {
				tags = append(tags, warm[idx][d]+uint64(c)*OwnerStride)
			}
		}
		merged[idx] = tags
	}
	return merged
}

// portOp is the port-side record of one access: the request handed to
// the home controller, both forwarding envelopes, and the completion
// bookkeeping. The ports recycle their portOps through a free list once
// the issuer's Done has returned, so a warm port allocates nothing per
// access.
type portOp struct {
	port   *Port
	req    cache.Request  // the home controller's copy of the access
	caller *cache.Request // the issuer's request, answered at completion
	fwd    coreReq        // rides to a remote home controller
	back   coreData       // rides back with the data or write acknowledgment
	home   int            // controller index owning the column
	issued int64
	// atHome is req.Done: po.dataAtHome bound once when the portOp is
	// built, not per access.
	atHome func(*cache.Request, int64)
}

// coreReq carries a remote core's request to the home controller.
type coreReq struct{ op *portOp }

// coreData carries the completed data notice back to the requesting core.
type coreData struct{ op *portOp }

// The CMP forwarding envelopes are protocol messages (flit.Payload).
func (*coreReq) ProtocolMessage() {}

func (*coreData) ProtocolMessage() {}

// Arena is a worker's whole construction arena: the cache arena a
// system is built from, the free list of the port ops a fabric over it
// recycles, the fabric, and one lane per core. A drained run returns
// every port op to the list, so the next fabric built with the arena
// starts with them, and the next run renews the fabric and the lanes in
// place. An arena carries one run at a time: a round builds one system,
// at most one fabric over it, and its cores. Single-goroutine, like
// cache.Arena.
type Arena struct {
	cache cache.Arena
	ops   portOps
	fab   Fabric
	lanes []*lane // grown to the most cores a run has used
}

// lane is one core's recycled run state: the core model and the
// synthetic stream it draws, relocated into core id's tag range as it is
// drawn (OffsetAddr; core 0's range is the classic single-core one), and
// in a CMP run the core's port, the hub at its router and the port's
// latency record.
type lane struct {
	core cpu.Core
	gen  trace.Synthetic
	am   trace.AddrMap
	id   int
	port Port
	hub  hub
	lat  stats.Latency
}

// lane returns lane i, growing the lanes to hold it.
func (a *Arena) lane(i int) *lane {
	for len(a.lanes) <= i {
		a.lanes = append(a.lanes, new(lane))
	}
	return a.lanes[i]
}

func (l *lane) Next() trace.Access {
	a := l.gen.Next()
	if l.id > 0 {
		a.Addr = OffsetAddr(l.am, a.Addr, l.id)
	}
	return a
}

// CacheArena returns the embedded cache arena.
func (a *Arena) CacheArena() *cache.Arena { return &a.cache }

// Reset recycles the arena for a fresh round of construction; the port
// ops stay on the free list and the lanes keep their memory.
func (a *Arena) Reset() { a.cache.Reset() }

// Core renews core i of the run being built on the arena and returns
// it, registered on k to issue that many accesses to l2. cfg.Seed is
// the run's seed; core i's RNG and its stream, which restarts as
// trace.NewSynthetic(prof, am, cpu.CoreSeed(cfg.Seed, i)), share the
// derived seed, which for core 0 is the run's own.
func (a *Arena) Core(i int, k *sim.Kernel, l2 cpu.L2, prof trace.Profile, am trace.AddrMap, accesses int, cfg cpu.Config) *cpu.Core {
	l := a.lane(i)
	cfg.Seed = cpu.CoreSeed(cfg.Seed, i)
	l.gen.Reset(prof, am, cfg.Seed)
	l.am, l.id = am, i
	return l.core.Renew(k, l2, prof, l, accesses, cfg)
}

// Fabric is the CMP attachment over a shared cache system: N ports, N
// co-located controllers, and the column home map.
type Fabric struct {
	Sys *cache.System
	N   int

	ports []*Port
	nodes []topology.NodeID // controller/core routers
	home  []int             // column -> controller index
	ops   *portOps          // every port's retired portOps; the arena's
}

// Port is one core's interface to the shared cache; it satisfies cpu.L2.
type Port struct {
	fab  *Fabric
	id   int
	node topology.NodeID
	ctrl *cache.Controller

	// Lat records the core-observed latency (including the trips to and
	// from a remote home controller).
	Lat *stats.Latency

	RemoteIssues uint64
	LocalIssues  uint64

	pending int // accesses issued and not yet completed
}

// hub is the ToCore endpoint at a controller's router: it demultiplexes
// protocol packets to the controller and CMP packets to the port logic.
type hub struct {
	ctrl *cache.Controller
	port *Port
}

func (h *hub) Deliver(pkt *flit.Packet, now int64) {
	switch p := pkt.Payload.(type) {
	case *coreReq:
		h.ctrl.Issue(&p.op.req, now)
	case *coreData:
		p.op.port.complete(p.op, now)
	default:
		h.ctrl.Deliver(pkt, now)
	}
}

// Attach grafts n cores onto a prebuilt system. Cores spread evenly
// along the top row; the topology's own core attachment point is ignored
// in favor of the computed positions. It errors — rather than panicking
// — on designs CMP cannot host (radial topologies have a single hub,
// gridless topologies no top row) and on out-of-range core counts, so
// batch runners can skip and report unsupported combinations.
func Attach(cs *cache.System, n int) (*Fabric, error) {
	return AttachIn(cs, n, nil)
}

// AttachIn is Attach built from ar (see Arena): the fabric, the ports
// with their hubs and latency records, renewed in place, and the port
// ops recycled through ar's free list; the extra controllers come from
// the system's own arena. A nil ar gives the fabric a fresh arena.
func AttachIn(cs *cache.System, n int, ar *Arena) (*Fabric, error) {
	if err := SupportsHost(cs.Topo, cs.Design.ID, n); err != nil {
		return nil, err
	}
	if ar == nil {
		ar = new(Arena)
	}
	f := &ar.fab
	*f = Fabric{Sys: cs, N: n, ops: &ar.ops,
		ports: f.ports[:0], nodes: f.nodes[:0], home: f.home}
	w := cs.Topo.W

	for i := 0; i < n; i++ {
		x := (2*i + 1) * w / (2 * n) // evenly spread along the top row
		node := cs.Topo.NodeAt(x, 0)
		ctrl := cs.Ctrl
		if node != ctrl.Node || i > 0 {
			ctrl = cache.NewControllerAt(cs, node)
		}
		l := ar.lane(i)
		l.lat.Reset(len(cs.Design.Banks))
		l.port = Port{fab: f, id: i, node: node, ctrl: ctrl, Lat: &l.lat}
		l.hub = hub{ctrl: ctrl, port: &l.port}
		f.ports = append(f.ports, &l.port)
		f.nodes = append(f.nodes, node)
		cs.Net.Attach(node, flit.ToCore, &l.hub)
	}
	// Home every column on the nearest controller.
	f.home = slab.Reuse(f.home, w)
	for col := 0; col < w; col++ {
		best, bestDist := 0, math.MaxInt
		for i, node := range f.nodes {
			d := abs(cs.Topo.Nodes[node].X - col)
			if d < bestDist {
				best, bestDist = i, d
			}
		}
		f.home[col] = best
	}
	return f, nil
}

// SupportsHost reports whether topology t can host an n-core fabric —
// the same gates Attach applies, exposed so preparation layers can fail
// fast before building a system. designID labels the errors.
func SupportsHost(t *topology.Topology, designID string, n int) error {
	if t.Radial {
		return fmt.Errorf("cmp: design %s is radial (%s): a single hub hosts every core; CMP needs a grid design",
			designID, t.Name)
	}
	if !t.HasGrid() {
		return fmt.Errorf("cmp: design %s (%s) has no full router grid to place cores on",
			designID, t.Name)
	}
	if n < 1 || n > t.W {
		return fmt.Errorf("cmp: core count %d out of range [1,%d]", n, t.W)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Port returns core i's cache interface.
func (f *Fabric) Port(i int) *Port { return f.ports[i] }

// Pending returns the accesses issued through the ports and not yet
// completed at their cores — the one piece of fabric state
// (*cache.System).Drain, which proves every controller idle, cannot see.
func (f *Fabric) Pending() int {
	n := 0
	for _, p := range f.ports {
		n += p.pending
	}
	return n
}

// Submit issues a caller-owned request (cpu.L2): local columns go
// straight to the co-located controller; remote columns cross the top
// row to their home. The port answers r — results, DataAt at this core,
// Done — when the data arrives here, and lets go of it once Done returns.
func (p *Port) Submit(r *cache.Request) {
	now := p.fab.Sys.K.Now()
	h := p.fab.home[p.fab.Sys.AM.ColumnOf(r.Addr)]
	po := p.fab.ops.get(p)
	po.req = cache.Request{Addr: r.Addr, Write: r.Write, Done: po.atHome}
	po.caller, po.home, po.issued = r, h, now
	r.Issued = now
	p.pending++

	if h == p.id {
		p.LocalIssues++
		p.ctrl.Issue(&po.req, now)
		return
	}
	p.RemoteIssues++
	kind := flit.ReadReq
	if r.Write {
		kind = flit.WriteData
	}
	net := p.fab.Sys.Net
	pkt := net.NewPacket(kind, p.node, p.fab.nodes[h], flit.ToCore, r.Addr)
	pkt.Payload = &po.fwd
	net.Send(pkt, now)
}

// portOps is a free list of retired portOps, shared by a fabric's ports.
type portOps struct{ free []*portOp }

// get returns a portOp for port p from the free list, building one (with
// its envelopes and bound callback wired) when the list is empty.
func (l *portOps) get(p *Port) *portOp {
	if n := len(l.free); n > 0 {
		po := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		po.port = p
		return po
	}
	po := &portOp{port: p}
	po.fwd.op = po
	po.back.op = po
	po.atHome = po.dataAtHome
	return po
}

// dataAtHome runs at the home controller when the data arrives there:
// a local access completes on the spot, a remote one forwards the data
// (or write acknowledgment) to the requesting core.
func (po *portOp) dataAtHome(r *cache.Request, now int64) {
	p := po.port
	if po.home == p.id {
		p.complete(po, now)
		return
	}
	kind := flit.DataToCore
	if r.Write {
		kind = flit.WriteDone
	}
	net := p.fab.Sys.Net
	pkt := net.NewPacket(kind, p.fab.nodes[po.home], p.node, flit.ToCore, r.Addr)
	pkt.Payload = &po.back
	net.Send(pkt, now)
}

// complete fires when the data reaches this core's router: it records
// the core-observed latency, answers the issuer's request, and recycles
// the portOp once the issuer's Done has returned.
func (p *Port) complete(po *portOp, now int64) {
	if po.caller == nil {
		panic("cmp: completion for a portOp with no access in flight")
	}
	home, r := &po.req, po.caller
	po.caller = nil
	p.pending--
	lat := now - po.issued
	if home.Hit {
		p.Lat.RecordHit(lat, home.HitBank, home.Breakdown)
	} else {
		p.Lat.RecordMiss(lat, home.Breakdown)
	}
	r.DataAt = now
	r.Hit, r.HitBank, r.Breakdown = home.Hit, home.HitBank, home.Breakdown
	if r.Done != nil {
		r.Done(r, now)
	}
	p.fab.ops.free = append(p.fab.ops.free, po)
}
