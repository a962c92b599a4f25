// Package mem models the off-chip memory of Table 1: a pipelined port
// with 130 cycles of access latency plus 4 cycles per 8 B transferred
// (32 cycles for a 64 B block), fronted by the memory controller's wire
// delay to the pins (large when the controller sits at the die centre of
// a halo: 16 cycles in Design E, 9 in Design F).
//
// The memory is a network endpoint: it consumes MemReadReq and WriteBack
// packets and answers reads with a MemBlock packet to the requested
// router (normally the MRU bank of the missing column).
package mem

import (
	"fmt"

	"nucanet/internal/flit"
	"nucanet/internal/network"
	"nucanet/internal/topology"
)

// Config sets the memory timing (Table 1 defaults via DefaultConfig).
type Config struct {
	AccessCycles int // pipelined access latency
	CyclesPer8B  int
	BlockBytes   int
	WireDelay    int // per direction, controller <-> pins
}

// DefaultConfig returns the Table 1 memory parameters.
func DefaultConfig() Config {
	return Config{AccessCycles: 130, CyclesPer8B: 4, BlockBytes: 64, WireDelay: 0}
}

// TransferCycles returns the pipelined occupancy of one block transfer.
func (c Config) TransferCycles() int {
	return c.CyclesPer8B * c.BlockBytes / 8
}

// ReadLatency returns the unloaded latency of one block read, excluding
// wire delay: access + transfer.
func (c Config) ReadLatency() int {
	return c.AccessCycles + c.TransferCycles()
}

// ReadReq is the payload of a MemReadReq packet: where the MemBlock reply
// should go and an opaque protocol cookie passed through unchanged as the
// reply's payload. ReplyPos is the bank position at ReplyTo for
// concentrated topologies (several banks per router); single-bank nodes
// leave it 0. Protocol layers embed the ReadReq in their per-operation
// state and send a pointer, keeping the miss path allocation-free.
type ReadReq struct {
	ReplyTo  topology.NodeID
	ReplyEp  flit.Endpoint
	ReplyPos int16
	Cookie   flit.Payload
}

// ProtocolMessage brands *ReadReq as a member of the protocol message
// catalogue (see flit.Payload).
func (*ReadReq) ProtocolMessage() {}

// Stats counts memory activity.
type Stats struct {
	Reads      uint64
	WriteBacks uint64
	// BusyStall accumulates cycles requests waited for the pipelined port.
	BusyStall uint64
}

// Memory is the off-chip memory endpoint. Its blocks wait in an outbox
// for the port to finish them; a reply's cycle never precedes an earlier
// one's, because neither the arrival cycle nor portFree decreases.
type Memory struct {
	cfg  Config
	net  *network.Network
	node topology.NodeID // router hosting the memory controller
	out  network.Outbox

	portFree int64
	stats    Stats
}

// Renew makes m a fresh memory attached to the topology's memory router,
// its outbox registered with net's kernel. The outbox keeps the capacity
// an earlier run grew, so a memory renewed run after run stops
// allocating.
func (m *Memory) Renew(net *network.Network, cfg Config) *Memory {
	*m = Memory{cfg: cfg, net: net, node: net.Topo.Mem, out: m.out}
	if net.Topo.MemWireDelay > 0 && cfg.WireDelay == 0 {
		m.cfg.WireDelay = net.Topo.MemWireDelay
	}
	m.out.Register(net, nil)
	net.Attach(m.node, flit.ToMem, m)
	return m
}

// Stats returns a copy of the counters.
func (m *Memory) Stats() Stats { return m.stats }

// Deliver consumes a memory-bound packet.
func (m *Memory) Deliver(pkt *flit.Packet, now int64) {
	switch pkt.Kind {
	case flit.MemReadReq:
		req, ok := pkt.Payload.(*ReadReq)
		if !ok {
			panic(fmt.Sprintf("mem: MemReadReq without ReadReq payload: %v", pkt))
		}
		m.stats.Reads++
		// Request reaches the pins after the controller's wire delay;
		// the pipelined port serializes transfers.
		arrive := now + int64(m.cfg.WireDelay)
		start := arrive
		if start < m.portFree {
			m.stats.BusyStall += uint64(m.portFree - start)
			start = m.portFree
		}
		m.portFree = start + int64(m.cfg.TransferCycles())
		ready := start + int64(m.cfg.ReadLatency()) + int64(m.cfg.WireDelay)
		// Attribute the full service span (wire both ways + port stall +
		// access) to the requesting operation's latency breakdown.
		if c, ok := req.Cookie.(interface{ AddMemCycles(int64) }); ok {
			c.AddMemCycles(ready - now)
		}
		reply := m.net.NewPacket(flit.MemBlock, m.node, req.ReplyTo, req.ReplyEp, pkt.Addr)
		reply.DstPos = req.ReplyPos
		reply.Payload = req.Cookie
		m.out.At(ready, reply)
	case flit.WriteBack:
		m.stats.WriteBacks++
		arrive := now + int64(m.cfg.WireDelay)
		start := arrive
		if start < m.portFree {
			m.stats.BusyStall += uint64(m.portFree - start)
			start = m.portFree
		}
		m.portFree = start + int64(m.cfg.TransferCycles())
	default:
		panic(fmt.Sprintf("mem: unexpected packet %v", pkt))
	}
}
