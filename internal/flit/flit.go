// Package flit defines the messages carried by the on-chip network:
// packets, their flitization (Section 5 of the paper), and the message
// kinds exchanged by the networked cache protocol.
//
// The link width is 16 B (128-bit flits). An address-only message (read
// request, notification) fits in one flit including the overhead fields
// (type, size, routing, communication type). A message carrying a 64 B
// cache block plus its address is five flits.
package flit

import "fmt"

// Kind enumerates every message exchanged between the core (cache
// controller), the banks, and the off-chip memory.
type Kind uint8

const (
	// ReadReq asks a bank (or a column of banks, when multicast) to
	// tag-match a block address. 1 flit. Under unicast Fast-LRU the
	// forwarded request travels glued to the evicted block as a
	// ReplaceBlock packet instead.
	ReadReq Kind = iota
	// WriteData is a write request: the tag-match probe carrying the
	// store data with it. 5 flits.
	WriteData
	// ReplaceBlock carries an evicted block to the next-farther bank in
	// a replacement chain (under unicast Fast-LRU it also carries the
	// data request onward). 5 flits.
	ReplaceBlock
	// BlockToMRU carries the hit block from the hit bank to the MRU
	// bank, whose frame is already empty under Fast-LRU. 5 flits.
	BlockToMRU
	// HitData carries the requested block from the hit bank to the
	// core. 5 flits.
	HitData
	// MissNotify tells the core a bank missed (multicast tag-match). 1 flit.
	MissNotify
	// CompleteNotify tells the core a replacement chain finished. 1 flit.
	CompleteNotify
	// WriteDone tells the core a write has been performed (the write
	// counterpart of HitData/DataToCore; only the address). 1 flit.
	WriteDone
	// MemReadReq asks the off-chip memory for a block. 1 flit.
	MemReadReq
	// MemBlock carries a fresh block from memory to the MRU bank. 5 flits.
	MemBlock
	// DataToCore forwards a freshly-filled block from the MRU bank to
	// the core. 5 flits.
	DataToCore
	// WriteBack carries a dirty victim from the LRU bank to memory. 5 flits.
	WriteBack
	numKinds
)

var kindNames = [numKinds]string{
	"ReadReq", "WriteData", "ReplaceBlock", "BlockToMRU", "HitData",
	"MissNotify", "CompleteNotify", "WriteDone", "MemReadReq",
	"MemBlock", "DataToCore", "WriteBack",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// BlockFlits is the flit count of a packet carrying a 64 B block: 32-bit
// address + 64 B data + overhead, split over 128-bit flits.
const BlockFlits = 5

// Flits returns the number of flits a packet of this kind occupies.
func (k Kind) Flits() int {
	switch k {
	case WriteData, ReplaceBlock, BlockToMRU, HitData, MemBlock, DataToCore, WriteBack:
		return BlockFlits
	default:
		return 1
	}
}

// Payload is the closed set of protocol message types a Packet may
// carry. The network treats payloads as opaque; the marker method keeps
// the set explicit and typed — every payload producer (the cache
// protocol's typed messages, the memory controller's read requests, the
// CMP layer's forwarding envelopes) declares itself by implementing it,
// and every consumer dispatches with an exhaustive type switch instead
// of blind any-assertions. Payload implementations are pointer-shaped,
// so storing one in a Packet never boxes a value onto the heap.
type Payload interface {
	// ProtocolMessage brands the type as a member of the protocol
	// message catalogue (see the cache package's message definitions).
	ProtocolMessage()
}

// Endpoint selects which agent attached to the destination router receives
// the packet.
type Endpoint uint8

const (
	ToBank Endpoint = iota // the cache bank at the router
	ToCore                 // the cache controller / core
	ToMem                  // the off-chip memory controller
)

func (e Endpoint) String() string {
	switch e {
	case ToBank:
		return "bank"
	case ToCore:
		return "core"
	case ToMem:
		return "mem"
	}
	return fmt.Sprintf("Endpoint(%d)", uint8(e))
}

// Packet is one network message. Packets are flitized on injection and
// reassembled on ejection; the Payload travels opaque to the network.
type Packet struct {
	ID   uint64
	Kind Kind
	// Src and Dst are router node ids. DstEp selects the agent at Dst.
	Src, Dst int
	DstEp    Endpoint
	// DstPos disambiguates bank endpoints on concentrated topologies,
	// where one router hosts several banks of a column: it is the
	// column position (0 = MRU side) of the addressed bank, or -1 to
	// address every bank at the node (multicast tag-match probes).
	// Topologies with one bank per router leave it 0.
	DstPos int16
	// PathDeliver marks a path-based multicast: a copy of the packet is
	// delivered to the bank at every router on the final straight
	// segment of the route (the bank column / spike), ending at Dst.
	PathDeliver bool
	// Addr is the block address the message concerns.
	Addr uint64
	// Payload carries protocol state opaque to the network.
	Payload Payload

	// Injected and Delivered are set by the network for latency
	// accounting (injection cycle, final-flit delivery cycle).
	Injected  int64
	Delivered int64

	// pooled marks a packet checked out of a PacketPool; only such
	// packets re-enter a freelist on Put.
	pooled bool
}

// Flits returns the flit count of the packet.
func (p *Packet) Flits() int { return p.Kind.Flits() }

func (p *Packet) String() string {
	mc := ""
	if p.PathDeliver {
		mc = " mcast"
	}
	return fmt.Sprintf("pkt#%d %s %d->%d/%s addr=%#x%s", p.ID, p.Kind, p.Src, p.Dst, p.DstEp, p.Addr, mc)
}

// Flit is one link-width slice of a packet.
type Flit struct {
	Pkt  *Packet
	Seq  int // 0-based position within the packet
	Head bool
	Tail bool
}
