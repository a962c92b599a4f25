// Package telemetry is the cycle-level observability layer of the
// simulator: a pluggable probe collector that the routers, the network,
// and the cache protocol emit into. It produces three artifacts —
//
//   - a flit-level event trace (inject / route / vc-alloc / eject /
//     multicast fork) serialized as deterministic JSONL (trace.go);
//   - spatial heatmaps: per-link flit counts, per-router port
//     utilization, per-bank access and hit counts (heatmap.go);
//   - a time series of queue occupancy and in-flight operations sampled
//     every N cycles through a sim.Observer (series.go).
//
// Percentile latency (p50/p90/p99) is not collected here: it lives in
// stats.Latency's always-on log-bucketed histogram, which merges exactly
// across parallel sweeps.
//
// The disabled path is a nil *Collector: every probe method nil-checks
// its receiver and returns, so a run without telemetry pays one
// predictable branch per probe site, allocates nothing, and stays within
// noise of the pre-telemetry simulator (the allocation guard in the
// repository root pins this). A Collector belongs to exactly one
// simulation run and is only touched from the goroutine driving that
// run's kernel, so parallel sweeps need no synchronization — the same
// ownership discipline as the rest of the per-run state.
//
// Determinism: all probe emission happens in kernel tick order and all
// serialization iterates in fixed index order, so equal seeds produce
// byte-identical traces, heatmaps, and series regardless of the sweep's
// worker count (pinned by TestRunInvariance in internal/core).
package telemetry

import (
	"nucanet/internal/flit"
	"nucanet/internal/topology"
)

// Config selects which probes a run collects. The zero value disables
// everything.
type Config struct {
	// Trace records the flit-level event trace. Memory grows with
	// traffic (~40 B/event); intended for focused runs, not full sweeps.
	Trace bool
	// Heatmap collects the spatial counters.
	Heatmap bool
	// SampleEvery samples queue occupancy and in-flight operations every
	// N cycles; 0 disables the time series.
	SampleEvery int
}

// Enabled reports whether any probe is on.
func (c Config) Enabled() bool { return c.Trace || c.Heatmap || c.SampleEvery > 0 }

// ProtocolProbe observes cache-protocol lifecycle events: operation
// issue, the CPU-visible data arrival, final completion (replacement
// chain drained), and every block entering or leaving a bank set. The
// conformance harness implements it to check runtime protocol
// invariants (exactly-once completion, replacement-chain block
// conservation); id correlates the events of one operation.
type ProtocolProbe interface {
	OpIssued(now int64, id uint64, col, set int, write bool)
	OpData(now int64, id uint64, hit bool, hitBank int)
	OpFinished(now int64, id uint64)
	BlockInserted(col, pos, set int, tag uint64)
	BlockEvicted(col, pos, set int, tag uint64)
}

// Collector receives probe emissions for one simulation run. A nil
// Collector is the disabled probe layer; all methods accept it.
type Collector struct {
	Trace  *Trace
	Heat   *Heatmap
	Series *Series
	// Protocol, when set, receives the cache-protocol lifecycle events.
	// It is not part of Config: callers wanting protocol invariant
	// checking construct a Collector directly.
	Protocol ProtocolProbe
}

// New builds a collector for cfg over topo, or nil when cfg disables
// every probe — callers pass the nil straight into the probe sites.
func New(cfg Config, topo *topology.Topology) *Collector {
	if !cfg.Enabled() {
		return nil
	}
	c := &Collector{}
	if cfg.Trace {
		c.Trace = NewTrace()
	}
	if cfg.Heatmap {
		c.Heat = NewHeatmap(topo)
	}
	if cfg.SampleEvery > 0 {
		c.Series = &Series{Every: int64(cfg.SampleEvery)}
	}
	return c
}

// SampleEvery returns the configured sampling period, 0 when the time
// series is off (or the collector is nil).
func (c *Collector) SampleEvery() int64 {
	if c == nil || c.Series == nil {
		return 0
	}
	return c.Series.Every
}

// Finish stamps the run's final cycle, the denominator for utilization
// reporting. Call once after the kernel drains.
func (c *Collector) Finish(now int64) {
	if c == nil {
		return
	}
	if c.Heat != nil {
		c.Heat.Cycles = now
	}
}

// FlitInjected records one flit entering the network at its source
// router's injection port.
func (c *Collector) FlitInjected(now int64, f flit.Flit, node int) {
	if c == nil || c.Trace == nil {
		return
	}
	c.Trace.add(now, EvInject, f.Pkt, f.Seq, node, -1, -1)
}

// VCAllocated records a head flit claiming a downstream virtual channel.
func (c *Collector) VCAllocated(now int64, pkt *flit.Packet, node, port, vc int) {
	if c == nil || c.Trace == nil {
		return
	}
	c.Trace.add(now, EvVCAlloc, pkt, 0, node, port, vc)
}

// FlitRouted records one flit granted switch traversal toward a
// neighbor: out of node through port into downstream VC vc.
func (c *Collector) FlitRouted(now int64, f flit.Flit, node, port, vc int) {
	if c == nil {
		return
	}
	if c.Heat != nil {
		c.Heat.link(node, port)
	}
	if c.Trace != nil {
		c.Trace.add(now, EvRoute, f.Pkt, f.Seq, node, port, vc)
	}
}

// FlitEjected records one flit leaving the network into the local
// endpoint at node (arriving through input port).
func (c *Collector) FlitEjected(now int64, f flit.Flit, node, port int) {
	if c == nil {
		return
	}
	if c.Heat != nil {
		c.Heat.eject(node)
	}
	if c.Trace != nil {
		c.Trace.add(now, EvEject, f.Pkt, f.Seq, node, port, -1)
	}
}

// ReplicaForked records a multicast fork point: the hybrid replicator
// copying a flit into the stolen VC (port, vc) at node.
func (c *Collector) ReplicaForked(now int64, f flit.Flit, node, port, vc int) {
	if c == nil {
		return
	}
	if c.Heat != nil {
		c.Heat.fork(node)
	}
	if c.Trace != nil {
		c.Trace.add(now, EvFork, f.Pkt, f.Seq, node, port, vc)
	}
}

// BankAccess records one booked bank access at (column, position).
func (c *Collector) BankAccess(col, pos int) {
	if c == nil || c.Heat == nil {
		return
	}
	c.Heat.bankAccess(col, pos)
}

// BankHit records a tag-match hit at (column, position).
func (c *Collector) BankHit(col, pos int) {
	if c == nil || c.Heat == nil {
		return
	}
	c.Heat.bankHit(col, pos)
}

// OpIssued records a column operation entering the protocol.
func (c *Collector) OpIssued(now int64, id uint64, col, set int, write bool) {
	if c == nil || c.Protocol == nil {
		return
	}
	c.Protocol.OpIssued(now, id, col, set, write)
}

// OpData records the operation's CPU-visible completion (data or write
// acknowledgment at the core).
func (c *Collector) OpData(now int64, id uint64, hit bool, hitBank int) {
	if c == nil || c.Protocol == nil {
		return
	}
	c.Protocol.OpData(now, id, hit, hitBank)
}

// OpFinished records the operation fully complete: data delivered and
// every replacement chain drained.
func (c *Collector) OpFinished(now int64, id uint64) {
	if c == nil || c.Protocol == nil {
		return
	}
	c.Protocol.OpFinished(now, id)
}

// BlockInserted records a block entering the set of bank (col, pos).
func (c *Collector) BlockInserted(col, pos, set int, tag uint64) {
	if c == nil || c.Protocol == nil {
		return
	}
	c.Protocol.BlockInserted(col, pos, set, tag)
}

// BlockEvicted records a block leaving the set of bank (col, pos) — an
// LRU eviction or a hit block departing for another bank.
func (c *Collector) BlockEvicted(col, pos, set int, tag uint64) {
	if c == nil || c.Protocol == nil {
		return
	}
	c.Protocol.BlockEvicted(col, pos, set, tag)
}

// Sample appends one time-series point (called from the sim.Observer).
func (c *Collector) Sample(now int64, inFlight, pending int) {
	if c == nil || c.Series == nil {
		return
	}
	c.Series.add(now, inFlight, pending)
}
