package router

import (
	"fmt"
	"maps"
	"slices"

	"nucanet/internal/flit"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
)

// Engine is the router-microarchitecture contract: everything the
// network layer needs to build, wire, and tick one node of the
// interconnect, independent of how the node buffers, arbitrates, or
// flow-controls its traffic. The VC wormhole router, the bufferless
// deflection router, and the ring-lite latch router all implement it;
// a new microarchitecture is one Builder row in the engines table and
// slots into every design, CLI, and sweep with no further plumbing.
//
// An Engine is a sim.Component: Tick runs one router cycle and reports
// whether the node needs the next cycle. Wire connects out-port p to the
// neighbor engine (all engines of one network are built by the same
// Builder, so implementations may type-assert the neighbor to their own
// concrete type — mixing microarchitectures within one network is not a
// supported configuration and panics loudly).
type Engine interface {
	sim.Component

	// Inject queues a packet at the node's injection interface (the NI
	// is the source: injection queues are unbounded).
	Inject(p *flit.Packet, now int64)
	// Occupancy returns the number of flits buffered in the node,
	// injection queue included — the conservation invariant's summand.
	Occupancy() int
	// Stats returns a copy of the node's activity counters.
	Stats() Stats
	// Wire connects out-port p to neighbor n's in-port np over a link of
	// the given delay.
	Wire(p int, n Engine, np, delay int)

	// SetTelemetry installs the probe collector (nil disables probes).
	SetTelemetry(c *telemetry.Collector)
}

// Sink receives every packet a node ejects, with the node it left at —
// one sink (the network) serves all the nodes of an interconnect. The
// ownership contract is network.Endpoint's: the node recycles pkt once
// Eject returns.
type Sink interface {
	Eject(node topology.NodeID, pkt *flit.Packet, now int64)
}

// Builder describes one router microarchitecture.
type Builder struct {
	// Name is the engines table key ("vc-wormhole", "bufferless", "ring-lite").
	Name string
	// Description is one line for -list=routers and GET /v1/routers.
	Description string

	// New constructs one unwired node, registers it with k and makes s
	// the sink it ejects into; the network package wires its links. ar is
	// the construction arena the node carves its state from (see Arena),
	// shared by every node of the network. The node mints its multicast
	// replicas from ar's packet pool and must Put every packet it ejects
	// — replica or not — once the last flit has been delivered (protocol
	// packets come from the same pool; Put ignores packets that do not).
	New func(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, s Sink, ar *Arena) Engine

	// Supports rejects (topology, config) pairs the engine cannot run,
	// with a descriptive error; nil means unconstrained. network.New
	// calls it before building a single node.
	Supports func(topo *topology.Topology, cfg Config) error

	// Deflecting marks engines that never block an in-flight flit (no
	// buffers to wait on): they cannot deadlock, but need a
	// livelock-freedom argument instead of the channel-dependence check
	// (routing.VerifyDeflectionLivelockFree).
	Deflecting bool
	// AgeMonotone declares that the engine's arbitration strictly
	// prioritizes older flits, the property the livelock argument rests
	// on. Deflecting engines without it are rejected at construction.
	AgeMonotone bool

	// BufferFlitsPerPort returns the flit-buffer depth one input port
	// carries under cfg — the area model's per-engine buffer cost (the
	// wormhole's 4 VCs x 4 flits = 16; the deflection router's single
	// pipeline latch = 1; ring-lite's two-entry latch = 2). Required,
	// like New.
	BufferFlitsPerPort func(cfg Config) int
}

// DefaultEngine is the microarchitecture an empty Config.Engine selects:
// the paper's VC wormhole router.
const DefaultEngine = "vc-wormhole"

// engines is the closed catalogue of router microarchitectures: a new
// engine is one row here.
var engines = map[string]Builder{
	DefaultEngine: {
		Name:        DefaultEngine,
		Description: "credit-based VC wormhole router with hybrid multicast replication (Table 1)",
		New: func(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, s Sink, ar *Arena) Engine {
			return New(id, topo, tb, cfg, k, s, ar)
		},
		BufferFlitsPerPort: func(cfg Config) int {
			cfg = cfg.withDefaults()
			return cfg.VCsPerPC * cfg.BufDepth
		},
	},
	"bufferless": {
		Name:        "bufferless",
		Description: "bufferless deflection router: age-based arbitration, no VCs, no credits",
		New:         newBufferless,
		Supports:    bufferlessSupports,
		Deflecting:  true,
		AgeMonotone: true,
		// One pipeline latch per port — the whole point of going bufferless.
		BufferFlitsPerPort: func(Config) int { return 1 },
	},
	"ring-lite": {
		Name:               "ring-lite",
		Description:        "two-entry-latch store-and-forward ring stop: no VCs, no credits, transit priority",
		New:                newRingLite,
		BufferFlitsPerPort: func(Config) int { return ringLatchCap },
	},
}

// ByName looks up an engine. The empty name resolves to
// DefaultEngine, so config zero values keep selecting the paper's
// wormhole router.
func ByName(name string) (Builder, error) {
	if name == "" {
		name = DefaultEngine
	}
	b, ok := engines[name]
	if !ok {
		return Builder{}, fmt.Errorf("router: unknown engine %q (registered: %v)", name, Names())
	}
	return b, nil
}

// Names returns the engine names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(engines)) }
