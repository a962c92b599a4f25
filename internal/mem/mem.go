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
	"nucanet/internal/sim"
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

type pendingReply struct {
	sendAt int64
	pkt    *flit.Packet
}

// Memory is the off-chip memory endpoint and component.
type Memory struct {
	cfg  Config
	k    *sim.Kernel
	kid  int
	net  *network.Network
	node topology.NodeID // router hosting the memory controller

	portFree int64
	replies  []pendingReply
	stats    Stats
}

// New attaches a memory to the topology's memory router and registers it.
func New(k *sim.Kernel, net *network.Network, cfg Config) *Memory {
	m := &Memory{cfg: cfg, k: k, net: net, node: net.Topo.Mem}
	if net.Topo.MemWireDelay > 0 && cfg.WireDelay == 0 {
		m.cfg.WireDelay = net.Topo.MemWireDelay
	}
	m.kid = k.Register(m)
	net.Attach(m.node, flit.ToMem, m)
	return m
}

// Node returns the router the memory controller attaches to.
func (m *Memory) Node() topology.NodeID { return m.node }

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
		m.replies = append(m.replies, pendingReply{sendAt: ready, pkt: reply})
		m.k.WakeAt(ready, m.kid)
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

// Tick sends replies whose time has come.
func (m *Memory) Tick(now int64) bool {
	rest := m.replies[:0]
	for _, r := range m.replies {
		if r.sendAt <= now {
			m.net.Send(r.pkt, now)
		} else {
			rest = append(rest, r)
		}
	}
	m.replies = rest
	return false // parked; WakeAt re-arms per reply
}
