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
// telemetry, and the experiment registry unchanged.
package cmp

import (
	"fmt"

	"nucanet/internal/cache"
	"nucanet/internal/flit"
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
// bookkeeping, in a single allocation.
type portOp struct {
	req    cache.Request
	fwd    coreReq  // rides to a remote home controller
	back   coreData // rides back with the data or write acknowledgment
	home   int      // controller index owning the column
	issued int64
	done   func(*cache.Request, int64)
}

// coreReq carries a remote core's request to the home controller.
type coreReq struct{ op *portOp }

// coreData carries the completed data notice back to the requesting core.
type coreData struct {
	op   *portOp
	port *Port
}

// The CMP forwarding envelopes are protocol messages (flit.Payload).
func (*coreReq) ProtocolMessage() {}

func (*coreData) ProtocolMessage() {}

// Fabric is the CMP attachment over a shared cache system: N ports, N
// co-located controllers, and the column home map.
type Fabric struct {
	Sys *cache.System
	N   int

	ports []*Port
	ctrls []*cache.Controller
	nodes []topology.NodeID // controller/core routers
	home  []int             // column -> controller index
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

	pend map[*cache.Request]*portOp
	// atHome is the Request.Done of every access this port issues,
	// bound once at Attach instead of closed over per access.
	atHome func(*cache.Request, int64)
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
		p.port.complete(p.op, now)
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
	if err := SupportsHost(cs.Topo, cs.Design.ID, n); err != nil {
		return nil, err
	}
	f := &Fabric{Sys: cs, N: n}
	w := cs.Topo.W

	for i := 0; i < n; i++ {
		x := (2*i + 1) * w / (2 * n) // evenly spread along the top row
		node := cs.Topo.NodeAt(x, 0)
		ctrl := cs.Ctrl
		if node != ctrl.Node || i > 0 {
			ctrl = cache.NewControllerAt(cs, node)
		}
		port := &Port{fab: f, id: i, node: node, ctrl: ctrl,
			Lat:  stats.NewLatency(len(cs.Design.Banks)),
			pend: make(map[*cache.Request]*portOp)}
		port.atHome = port.dataAtHome
		f.ports = append(f.ports, port)
		f.ctrls = append(f.ctrls, ctrl)
		f.nodes = append(f.nodes, node)
		cs.Net.Attach(node, flit.ToCore, &hub{ctrl: ctrl, port: port})
	}
	// Home every column on the nearest controller.
	f.home = make([]int, w)
	for col := 0; col < w; col++ {
		best, bestDist := 0, 1<<30
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

// OffsetAddr relocates an address into core i's private tag range.
func (f *Fabric) OffsetAddr(addr uint64, core int) uint64 {
	return OffsetAddr(f.Sys.AM, addr, core)
}

// Warm interleaves the cores' warm sets into the shared cache (see
// MergeWarm).
func (f *Fabric) Warm(warm [][]uint64) {
	f.Sys.Warm(MergeWarm(f.Sys.AM, f.Sys.Design.Ways(), warm, f.N))
}

// Pending returns outstanding work across every port and controller —
// the fabric-wide complement of (*cache.Controller).Pending that a
// multi-controller drain must check.
func (f *Fabric) Pending() int {
	n := 0
	for _, p := range f.ports {
		n += len(p.pend)
	}
	for _, c := range f.ctrls {
		n += c.Pending()
	}
	return n
}

// Issue submits core-side access i: local columns go straight to the
// co-located controller; remote columns cross the top row to their home.
func (p *Port) Issue(addr uint64, write bool, done func(*cache.Request, int64)) *cache.Request {
	now := p.fab.Sys.K.Now()
	h := p.fab.home[p.fab.Sys.AM.ColumnOf(addr)]
	po := &portOp{
		req:  cache.Request{Addr: addr, Write: write, Done: p.atHome},
		home: h, issued: now, done: done,
	}
	po.fwd.op = po
	po.back = coreData{op: po, port: p}
	r := &po.req
	p.pend[r] = po

	if h == p.id {
		p.LocalIssues++
		p.ctrl.Issue(r, now)
		return r
	}
	p.RemoteIssues++
	kind := flit.ReadReq
	if write {
		kind = flit.WriteData
	}
	net := p.fab.Sys.Net
	pkt := net.NewPacket(kind, p.node, p.fab.nodes[h], flit.ToCore, addr)
	pkt.Payload = &po.fwd
	net.Send(pkt, now)
	return r
}

// dataAtHome runs at the home controller when the data arrives there:
// a local access completes on the spot, a remote one forwards the data
// (or write acknowledgment) to the requesting core.
func (p *Port) dataAtHome(r *cache.Request, now int64) {
	po, ok := p.pend[r]
	if !ok {
		panic("cmp: completion for unknown request")
	}
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

// complete fires when the data reaches this core's router.
func (p *Port) complete(po *portOp, now int64) {
	r := &po.req
	if _, ok := p.pend[r]; !ok {
		panic("cmp: completion for unknown request")
	}
	delete(p.pend, r)
	lat := now - po.issued
	if r.Hit {
		p.Lat.RecordHit(lat, r.HitBank, r.Breakdown)
	} else {
		p.Lat.RecordMiss(lat, r.Breakdown)
	}
	if po.done != nil {
		po.done(r, now)
	}
}

// Pending returns outstanding core-side requests.
func (p *Port) Pending() int { return len(p.pend) }
