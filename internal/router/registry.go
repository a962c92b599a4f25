package router

import (
	"nucanet/internal/flit"
	"nucanet/internal/registry"
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
// new microarchitectures register a Builder and slot into every design,
// CLI, and sweep with no further plumbing (the same shape as the
// topology, routing, and cache-policy registries).
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

	// SetSink installs where the node ejects its packets.
	SetSink(s Sink)
	// SetKernelID records the component id used for activations.
	SetKernelID(id int)
	// SetTelemetry installs the probe collector (nil disables probes).
	SetTelemetry(c *telemetry.Collector)
	// SetPool installs the per-run packet freelist: the engine mints
	// its multicast replicas from it and must Put every packet it
	// ejects — replica or not — once the last flit has been delivered
	// (protocol packets come from the same pool; Put ignores packets
	// that do not). A nil pool falls back to plain allocation.
	SetPool(p *flit.PacketPool)
}

// Sink receives every packet a node ejects, with the node it left at —
// one sink (the network) serves all the nodes of an interconnect. The
// ownership contract is network.Endpoint's: the node recycles pkt once
// Eject returns.
type Sink interface {
	Eject(node topology.NodeID, pkt *flit.Packet, now int64)
}

// Builder describes one registered router microarchitecture.
type Builder struct {
	// Name is the registry key ("vc-wormhole", "bufferless", "ring-lite").
	Name string
	// Description is one line for -list=routers and GET /v1/routers.
	Description string

	// New constructs one unwired node. The network package wires links,
	// installs the pool/sink/kernel hooks, and registers it. ar, when
	// non-nil, is the construction arena the node must carve its state
	// from (batch construction, see Arena); a nil arena
	// means per-router allocation and must produce identical behavior.
	New func(id topology.NodeID, topo *topology.Topology, tb *routing.Table, cfg Config, k *sim.Kernel, ar *Arena) Engine

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
	// pipeline latch = 1; ring-lite's two-entry latch = 2).
	BufferFlitsPerPort func(cfg Config) int
}

// DefaultEngine is the microarchitecture an empty Config.Engine selects:
// the paper's VC wormhole router.
const DefaultEngine = "vc-wormhole"

// BufferFlits returns BufferFlitsPerPort(cfg), defaulting to the wormhole
// calibration point (default VCs x depth) for builders that do not model
// their buffers — area estimates then err conservative instead of
// panicking.
func (b Builder) BufferFlits(cfg Config) int {
	if b.BufferFlitsPerPort == nil {
		d := DefaultConfig()
		return d.VCsPerPC * d.BufDepth
	}
	return b.BufferFlitsPerPort(cfg)
}

var engines = registry.New[Builder]("router", "engine", nil)

// Register adds a router microarchitecture under a unique name. Engines
// self-register from init; registering a duplicate name, an empty name,
// or a nil constructor is a programming error and panics.
func Register(b Builder) {
	if b.New == nil {
		panic("router: Register with nil constructor")
	}
	engines.Register(b.Name, b)
}

// ByName looks up a registered engine. The empty name resolves to
// DefaultEngine, so config zero values keep selecting the paper's
// wormhole router.
func ByName(name string) (Builder, error) {
	if name == "" {
		name = DefaultEngine
	}
	b, ok := engines.Lookup(name)
	if !ok {
		return Builder{}, engines.Unknown(name, engines.Sorted())
	}
	return b, nil
}

// Names returns the registered engine names, sorted.
func Names() []string { return engines.Sorted() }
