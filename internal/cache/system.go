package cache

import (
	"fmt"
	"slices"

	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/flit"
	"nucanet/internal/mem"
	"nucanet/internal/network"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/stats"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// System is one complete networked L2 cache: topology, routers, banks,
// protocol agents, controller, and off-chip memory, assembled from a
// Table 3 design and a (policy, mode) pair.
type System struct {
	K      *sim.Kernel
	Design config.Design
	Policy Policy
	Mode   Mode
	Topo   *topology.Topology
	Net    *network.Network
	Memory *mem.Memory
	Ctrl   *Controller
	AM     trace.AddrMap
	Lat    *stats.Latency

	// Dir is the ownership directory, non-nil only under the Directory
	// policy (see directory.go).
	Dir *DirStats

	agents []agent // column c's bank at position p is agents[c*len(Design.Banks)+p]
	arena  *Arena  // the construction arena
	tel    *telemetry.Collector
	eng    PolicyEngine // the engine driving Policy
	opSeq  uint64       // operation serial counter (telemetry correlation)
	ops    *opPool      // every controller's ops, recycled once retired
	warm   *WarmImage   // the image the banks were last warmed from; nil before

	// The storage behind Lat, Dir, Memory and the controller list,
	// renewed in place with the system (see Arena.Reset).
	lat    stats.Latency
	dir    DirStats
	memory mem.Memory
	ctrls  []*Controller // every controller built, Ctrl first: what Drain proves idle
}

// release drops the system's references to its run's inputs and outputs
// — kernel, design, topology, network, telemetry — and keeps only the
// storage its latency record, directory, memory and controller list
// grew, for the next system NewPrebuilt builds in the slot.
func (s *System) release() {
	*s = System{lat: s.lat, dir: s.dir, memory: s.memory, ctrls: s.ctrls[:0]}
}

// New builds a system over a fresh kernel-registered network. It errors
// when the design's topology cannot be built or its routing fails the
// static deadlock-freedom check.
func New(k *sim.Kernel, d config.Design, policy Policy, mode Mode) (*System, error) {
	return NewPrebuilt(k, d, policy, mode, Prebuilt{})
}

// Prebuilt carries construction artifacts a caller has already produced
// so batch evaluation (core.Engine.RunAll) can share the immutable ones
// across many systems of the same design. The zero value builds
// everything fresh — the ordinary single-run path.
type Prebuilt struct {
	// Topo, when non-nil, must be the design's own topology (d.Build()
	// output); it is shared read-only across systems.
	Topo *topology.Topology
	// Alg, when non-nil, is the routing algorithm or precomputed
	// *routing.Table to use instead of routing.For(Topo).
	Alg routing.Algorithm
	// Arena supplies the system's construction memory and free lists
	// (see Arena); its network arena passes through to network.BuildOpts
	// with Prechecked. Nil gives the system a fresh one.
	Arena      *Arena
	Prechecked bool
}

// Check is the cache package's rule for whether a System can be built
// over design d under policy and mode: the policy is registered, the mode
// is known, and a column holds no more banks than an operation can track.
// NewPrebuilt calls it first, and core's run gate calls it, so a run the
// gate accepts builds its system.
func Check(d config.Design, policy Policy, mode Mode) error {
	if !policy.Valid() {
		return fmt.Errorf("cache: unregistered policy id %d (registered: %v)", policy, PolicyNames())
	}
	if !mode.Valid() {
		return fmt.Errorf("cache: unknown mode id %d", mode)
	}
	if len(d.Banks) > maxColumnBanks {
		return fmt.Errorf("cache: design %s has %d banks per column, more than the %d an operation can track",
			d.ID, len(d.Banks), maxColumnBanks)
	}
	return nil
}

// NewPrebuilt is New with shared construction artifacts (see Prebuilt).
func NewPrebuilt(k *sim.Kernel, d config.Design, policy Policy, mode Mode, pre Prebuilt) (*System, error) {
	if err := Check(d, policy, mode); err != nil {
		return nil, err
	}
	if pre.Arena == nil {
		pre.Arena = new(Arena)
	}
	topo := pre.Topo
	if topo == nil {
		var err error
		if topo, err = d.Build(); err != nil {
			return nil, err
		}
	}
	s := pre.Arena.system() // fresh, or released by Arena.Reset
	s.K, s.Design, s.Policy, s.Mode = k, d, policy, mode
	s.Topo, s.AM, s.Lat = topo, d.AddrMap(), &s.lat
	s.eng, s.arena, s.ops = policy.engine(), pre.Arena, &pre.Arena.ops
	s.ops.quarantine = false // the pool outlives the system; see EnableTelemetry
	s.lat.Reset(len(d.Banks))
	if policy == Directory {
		s.Dir = &s.dir
		s.Dir.reset()
	}
	alg := pre.Alg
	if alg == nil {
		var err error
		if alg, err = routing.For(topo); err != nil {
			return nil, err
		}
	}
	var err error
	s.Net, err = network.NewOpts(k, topo, alg, d.Router,
		network.BuildOpts{Arena: &pre.Arena.net, Prechecked: pre.Prechecked})
	if err != nil {
		return nil, err
	}
	s.agents = pre.Arena.agentSlab(topo.Columns() * len(d.Banks))
	for c := 0; c < topo.Columns(); c++ {
		col := topo.Column(c)
		for p, node := range col {
			a := s.agent(c, p)
			*a = agent{
				sys: s, node: node, col: c, pos: p, last: len(col) - 1,
				bk: bank.NewIn(d.Banks[p], d.Banks[p].Sets(), &pre.Arena.banks),
			}
			a.out.Register(s.Net, pre.Arena.outboxSlab(sendQueueCap))
			// Concentrated topologies place several banks of one column
			// on a router; a mux, attached at the node's first position,
			// demuxes ToBank deliveries by DstPos. Single-bank nodes
			// attach the agent directly, keeping the one-bank-per-router
			// fast path free of the mux.
			switch {
			case topo.BanksAt(node) == 1:
				s.Net.Attach(node, flit.ToBank, a)
			case slices.Index(col, node) == p:
				m := pre.Arena.mux()
				*m = bankMux{node: node, col: s.column(c)}
				s.Net.Attach(node, flit.ToBank, m)
			}
		}
	}
	s.Ctrl = newController(s)
	s.Net.Attach(topo.Core, flit.ToCore, s.Ctrl)
	s.Memory = s.memory.Renew(s.Net)
	return s, nil
}

// MustNew is New for tests and examples with known-good designs.
func MustNew(k *sim.Kernel, d config.Design, policy Policy, mode Mode) *System {
	s, err := New(k, d, policy, mode)
	if err != nil {
		panic(err)
	}
	return s
}

// bankMux fans ToBank deliveries at one router out to the banks hosted
// there (concentrated topologies). DstPos selects the bank by column
// position; -1 delivers to every hosted bank in ascending position
// order — the node-local leg of a multicast tag-match.
type bankMux struct {
	node topology.NodeID
	col  []agent // the column's agents, the hosted ones among them
}

func (m *bankMux) Deliver(pkt *flit.Packet, now int64) {
	if pkt.DstPos < 0 {
		for i := range m.col {
			if a := &m.col[i]; a.node == m.node {
				a.Deliver(pkt, now)
			}
		}
		return
	}
	if p := int(pkt.DstPos); p < len(m.col) && m.col[p].node == m.node {
		m.col[p].Deliver(pkt, now)
		return
	}
	panic(fmt.Sprintf("cache: no bank at position %d of node %d for %v", pkt.DstPos, pkt.Dst, pkt))
}

// EnableTelemetry installs the probe collector across the system: the
// routers (flit trace, link heatmap), the bank agents (per-bank access
// and hit counts), and — when sampling is on — a sim.Observer polling
// queue occupancy and in-flight operations. A Protocol probe also turns
// the op pool's quarantine on, so a message reaching a retired op panics
// instead of serving a later access. Call after New and before issuing
// traffic; registering here keeps the observer's component id above
// every working component, so it ticks last within a cycle.
func (s *System) EnableTelemetry(c *telemetry.Collector) {
	s.tel = c
	s.ops.quarantine = c != nil && c.Protocol != nil
	s.Net.SetTelemetry(c)
	if every := c.SampleEvery(); every > 0 {
		sim.Observe(s.K, every, func(now int64) {
			c.Sample(now, s.Net.InFlight(), s.Ctrl.Pending())
		})
	}
}

// agent returns the bank agent at (column, position).
func (s *System) agent(col, pos int) *agent { return &s.agents[col*len(s.Design.Banks)+pos] }

// column returns the bank agents of one column, MRU bank first.
func (s *System) column(col int) []agent {
	n := len(s.Design.Banks)
	return s.agents[col*n : (col+1)*n]
}

// bankNode returns the router of the bank at (column, position).
func (s *System) bankNode(col, pos int) topology.NodeID {
	return s.Topo.Column(col)[pos]
}

// memRead builds the MemReadReq from router src that asks the off-chip
// memory for o's block; the caller sends it exactly once. The read
// request and its cookie (the fill message memory echoes back) are
// embedded in the op, so the miss path allocates nothing; the reply goes
// to the column's MRU bank, and the one pending delivery counted here is
// consumed when the fill lands there.
func (s *System) memRead(o *op, src topology.NodeID) *flit.Packet {
	o.memReq = mem.ReadReq{ReplyTo: s.bankNode(o.col, 0), ReplyEp: flit.ToBank, Cookie: &o.fill}
	pkt := s.Net.NewPacket(flit.MemReadReq, src, s.Topo.Mem, flit.ToMem, o.addr)
	pkt.Payload = &o.memReq
	o.pending++
	return pkt
}

// lastPos returns the position of the LRU bank in every column.
func (s *System) lastPos() int { return len(s.Design.Banks) - 1 }

// Bank returns the bank state at (column, position) — for tests and
// validation against the golden model.
func (s *System) Bank(col, pos int) *bank.Bank { return &s.agent(col, pos).bk }

// BankAccesses sums bank accesses across the cache (Fast-LRU roughly
// halves this versus classic LRU, a claim of the paper).
func (s *System) BankAccesses() uint64 {
	var n uint64
	for i := range s.agents {
		n += s.agents[i].Accesses
	}
	return n
}

// BankAccessesBySize splits the bank-access counts by bank capacity (KB),
// as the energy model needs.
func (s *System) BankAccessesBySize() map[int]uint64 {
	out := make(map[int]uint64)
	for i := range s.agents {
		a := &s.agents[i]
		out[a.bk.Spec().SizeKB] += a.Accesses
	}
	return out
}

// Submit issues a caller-owned request at the current cycle: the caller
// sets Addr, Write and Done, and may reuse r once Done has run (the
// allocation-free path cpu.Core drives).
func (s *System) Submit(r *Request) { s.Ctrl.Issue(r, s.K.Now()) }

// Issue submits one access in a fresh Request the caller may keep and
// read after the run; done (optional) fires when the data reaches the
// core.
func (s *System) Issue(addr uint64, write bool, done func(*Request, int64)) *Request {
	r := &Request{Addr: addr, Write: write, Done: done}
	s.Submit(r)
	return r
}

// Warm preloads every bank from a warm-state table as produced by
// (*trace.Synthetic).WarmBlocks (see BuildWarmImage), through an image of
// its own. The same table warms a Golden model, keeping the two in
// lock-step from the first access.
func (s *System) Warm(warm [][]uint64) { s.WarmClone(BuildWarmImage(s.Design, warm)) }

// NewGoldenFor builds a golden reference model matching this system's
// geometry and policy.
func (s *System) NewGoldenFor() *Golden {
	return NewGolden(s.Policy, s.Design.Banks, s.AM.Columns, s.AM.Sets)
}

// Drain runs the kernel until it goes idle or the cycle budget runs out,
// then proves the run complete: no request queued or in flight at any
// controller the system built, no flit in the network, no packet out of
// the pool and no operation live. Every run ends through it; it names
// the first check that fails.
func (s *System) Drain(maxCycles int64) error {
	_, idle := s.K.Run(maxCycles)
	pending, inflight := 0, s.Net.InFlight()
	for _, c := range s.ctrls {
		pending += c.Pending()
	}
	switch {
	case !idle:
		return fmt.Errorf("cache: system did not quiesce within %d cycles (pending=%d, inflight=%d)",
			maxCycles, pending, inflight)
	case pending != 0:
		return fmt.Errorf("cache: %d requests stuck after quiescence", pending)
	case inflight != 0:
		return fmt.Errorf("cache: %d flits stuck in the network", inflight)
	}
	if st := s.Net.PoolStats(); st.Live != 0 {
		return fmt.Errorf("cache: %d packets never returned to the pool", st.Live)
	}
	if st := s.ops.stats(); st.Live != 0 {
		return fmt.Errorf("cache: %d operations never retired (gets=%d puts=%d)", st.Live, st.Gets, st.Puts)
	}
	return nil
}

// Contents returns the tags of one set across the column's banks, MRU
// first within each bank — comparable with Golden.Contents.
func (s *System) Contents(col, set int) [][]uint64 {
	agents := s.column(col)
	out := make([][]uint64, len(agents))
	for p := range agents {
		blocks := agents[p].bk.Blocks(set)
		tags := make([]uint64, len(blocks))
		for i, b := range blocks {
			tags[i] = b.Tag
		}
		out[p] = tags
	}
	return out
}
