package cache

import (
	"fmt"

	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/flit"
	"nucanet/internal/mem"
	"nucanet/internal/network"
	"nucanet/internal/router"
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
	// policy (see engine_directory.go).
	Dir *DirStats

	agents [][]*agent // [column][position]
	tel    *telemetry.Collector
	eng    PolicyEngine // the registered engine driving Policy
	opSeq  uint64       // operation serial counter (telemetry correlation)
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
	// Arena and Prechecked pass through to network.BuildOpts.
	Arena      *router.Arena
	Prechecked bool
}

// ValidatePair reports the same errors New would raise for an
// unregistered policy or an unknown mode, letting callers fail in New's
// error order before building any artifacts.
func ValidatePair(policy Policy, mode Mode) error {
	if !policy.Valid() {
		return fmt.Errorf("cache: unregistered policy id %d (registered: %v)", policy, PolicyNames())
	}
	if !mode.Valid() {
		return fmt.Errorf("cache: unknown mode id %d", mode)
	}
	return nil
}

// NewPrebuilt is New with shared construction artifacts (see Prebuilt).
func NewPrebuilt(k *sim.Kernel, d config.Design, policy Policy, mode Mode, pre Prebuilt) (*System, error) {
	if err := ValidatePair(policy, mode); err != nil {
		return nil, err
	}
	if len(d.Banks) > maxColumnBanks {
		return nil, fmt.Errorf("cache: design %s has %d banks per column, more than the %d an operation can track",
			d.ID, len(d.Banks), maxColumnBanks)
	}
	topo := pre.Topo
	if topo == nil {
		var err error
		if topo, err = d.Build(); err != nil {
			return nil, err
		}
	}
	s := &System{
		K: k, Design: d, Policy: policy, Mode: mode,
		Topo: topo,
		AM:   d.AddrMap(),
		Lat:  stats.NewLatency(len(d.Banks)),
		eng:  policy.engine(),
	}
	if _, ok := s.eng.(*directoryEngine); ok {
		s.Dir = newDirStats(topo.Columns())
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
		network.BuildOpts{Arena: pre.Arena, Prechecked: pre.Prechecked})
	if err != nil {
		return nil, err
	}
	muxes := make(map[topology.NodeID]*bankMux)
	s.agents = make([][]*agent, topo.Columns())
	for c := 0; c < topo.Columns(); c++ {
		col := topo.Column(c)
		s.agents[c] = make([]*agent, len(col))
		for p, node := range col {
			a := &agent{
				sys: s, node: node, col: c, pos: p, last: len(col) - 1,
				bk: bank.NewIn(d.Banks[p], pre.Arena.BankArena()),
			}
			a.sched.register(k, s.Net)
			s.agents[c][p] = a
			// Concentrated topologies place several banks of one column
			// on a router; a mux demuxes ToBank deliveries by DstPos.
			// Single-bank nodes attach the agent directly, keeping the
			// one-bank-per-router fast path allocation-free.
			if m, ok := muxes[node]; ok {
				m.agents = append(m.agents, a)
			} else if topo.BanksAt(node) > 1 {
				m = &bankMux{agents: []*agent{a}}
				muxes[node] = m
				s.Net.Attach(node, flit.ToBank, m)
			} else {
				s.Net.Attach(node, flit.ToBank, a)
			}
		}
	}
	s.Ctrl = newController(s)
	s.Net.Attach(topo.Core, flit.ToCore, s.Ctrl)
	s.Memory = mem.New(k, s.Net, mem.DefaultConfig())
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
	agents []*agent // ascending column-position order
}

func (m *bankMux) Deliver(pkt *flit.Packet, now int64) {
	if pkt.DstPos < 0 {
		for _, a := range m.agents {
			a.Deliver(pkt, now)
		}
		return
	}
	for _, a := range m.agents {
		if int16(a.pos) == pkt.DstPos {
			a.Deliver(pkt, now)
			return
		}
	}
	panic(fmt.Sprintf("cache: no bank at position %d of node %d for %v", pkt.DstPos, pkt.Dst, pkt))
}

// EnableTelemetry installs the probe collector across the system: the
// routers (flit trace, link heatmap), the bank agents (per-bank access
// and hit counts), and — when sampling is on — a sim.Observer polling
// queue occupancy and in-flight operations. Call after New and before
// issuing traffic; registering here keeps the observer's component id
// above every working component, so it ticks last within a cycle.
func (s *System) EnableTelemetry(c *telemetry.Collector) {
	s.tel = c
	s.Net.SetTelemetry(c)
	if every := c.SampleEvery(); every > 0 {
		sim.Observe(s.K, every, func(now int64) {
			c.Sample(now, s.Net.InFlight(), s.Ctrl.Pending())
		})
	}
}

// bankNode returns the router of the bank at (column, position).
func (s *System) bankNode(col, pos int) topology.NodeID {
	return s.Topo.Column(col)[pos]
}

// lastPos returns the position of the LRU bank in every column.
func (s *System) lastPos() int { return len(s.Design.Banks) - 1 }

// Bank returns the bank state at (column, position) — for tests and
// validation against the golden model.
func (s *System) Bank(col, pos int) *bank.Bank { return s.agents[col][pos].bk }

// BankAccesses sums bank accesses across the cache (Fast-LRU roughly
// halves this versus classic LRU, a claim of the paper).
func (s *System) BankAccesses() uint64 {
	var n uint64
	for _, col := range s.agents {
		for _, a := range col {
			n += a.Accesses
		}
	}
	return n
}

// BankAccessesBySize splits the bank-access counts by bank capacity (KB),
// as the energy model needs.
func (s *System) BankAccessesBySize() map[int]uint64 {
	out := make(map[int]uint64)
	for _, col := range s.agents {
		for _, a := range col {
			out[a.bk.Spec().SizeKB] += a.Accesses
		}
	}
	return out
}

// Issue submits one access; done (optional) fires when the data reaches
// the core.
func (s *System) Issue(addr uint64, write bool, done func(*Request, int64)) *Request {
	r := &Request{Addr: addr, Write: write, Done: done}
	s.Ctrl.Issue(r, s.K.Now())
	return r
}

// Warm preloads every bank from a warm-state table as produced by
// (*trace.Synthetic).WarmBlocks: warm[set*Columns+col] lists tags in
// MRU-to-LRU order. The same table warms a Golden model, keeping the two
// in lock-step from the first access.
func (s *System) Warm(warm [][]uint64) {
	cols := s.AM.Columns
	for set := 0; set < s.AM.Sets; set++ {
		for c := 0; c < cols; c++ {
			tags := warm[set*cols+c]
			i := 0
			for p, a := range s.agents[c] {
				ways := s.Design.Banks[p].Ways
				for w := 0; w < ways && i < len(tags); w++ {
					a.bk.InsertLRU(set, bank.Block{Tag: tags[i]})
					i++
				}
			}
		}
	}
	if s.Dir != nil {
		s.Dir.seed(s)
	}
}

// NewGoldenFor builds a golden reference model matching this system's
// geometry and policy.
func (s *System) NewGoldenFor() *Golden {
	return NewGolden(s.Policy, s.Design.Banks, s.AM.Columns, s.AM.Sets)
}

// Drain runs the kernel until all protocol activity quiesces or the cycle
// budget is exhausted; it errors on a stuck protocol.
func (s *System) Drain(maxCycles int64) error {
	if _, idle := s.K.Run(maxCycles); !idle {
		return fmt.Errorf("cache: system did not quiesce within %d cycles (pending=%d, inflight=%d)",
			maxCycles, s.Ctrl.Pending(), s.Net.InFlight())
	}
	if p := s.Ctrl.Pending(); p != 0 {
		return fmt.Errorf("cache: %d requests stuck after quiescence", p)
	}
	if f := s.Net.InFlight(); f != 0 {
		return fmt.Errorf("cache: %d flits stuck in the network", f)
	}
	return nil
}

// Contents returns the tags of one set across the column's banks, MRU
// first within each bank — comparable with Golden.Contents.
func (s *System) Contents(col, set int) [][]uint64 {
	out := make([][]uint64, len(s.agents[col]))
	for p, a := range s.agents[col] {
		blocks := a.bk.Blocks(set)
		tags := make([]uint64, len(blocks))
		for i, b := range blocks {
			tags[i] = b.Tag
		}
		out[p] = tags
	}
	return out
}
