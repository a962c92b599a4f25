package cache

import (
	"nucanet/internal/bank"
	"nucanet/internal/flit"
)

// This file defines the closed catalogue of protocol messages the
// networked cache exchanges, replacing the former untyped payloads (the
// shared *op plus a *blockMsg with mode flags). Each message is its own
// type implementing flit.Payload, so every consumer dispatches with an
// exhaustive type switch and the compiler rejects a payload outside the
// catalogue.
//
// Message <-> packet-kind correspondence:
//
//	probeMsg    ReadReq / WriteData   tag-match request (1 or 5 flits)
//	chainMsg    ReplaceBlock          plain replacement-chain block
//	unitMsg     ReplaceBlock          unicast Fast-LRU request+block unit
//	promoteMsg  ReplaceBlock          Promotion hit block moving closer
//	demoteMsg   ReplaceBlock          Promotion displaced block moving back
//	storeMsg    BlockToMRU            hit block bound for the MRU bank
//	dataMsg     HitData / DataToCore / WriteDone   CPU-visible completion
//	missMsg     MissNotify            one bank's multicast miss report
//	doneMsg     CompleteNotify        one replacement chain drained
//	fillMsg     MemBlock              memory fill (also the mem cookie)
//
// Every message embeds a pointer to its operation's shared state. One
// instance of each message type lives inside the op itself (see op.go):
// a replacement chain is strictly sequential, so each hop mutates the
// block field of the instance it received and sends the same instance
// onward. The packets that carry them come from the network's pool
// (network.NewPacket) and go back to it at ejection, and a scheduled
// send is an entry in the sending agent's queue (sched.go), so the
// steady-state protocol allocates exactly two objects per access — the
// Request and the op — and nothing per send or per hop. Because packets
// are recycled, a receiver keeps the message (a pointer into the op),
// never the packet that delivered it. Instances that can be in flight
// several times at once (missMsg from every probed bank, doneMsg from
// two concurrent chain drains under multicast Fast-LRU) are immutable
// after creation, so sharing is safe.

// probeMsg asks a bank (or, multicast, a column) to tag-match.
type probeMsg struct{ o *op }

// dataMsg carries the CPU-visible completion to the controller: block
// data for reads, the one-flit acknowledgment for writes.
type dataMsg struct{ o *op }

// missMsg reports one bank's multicast tag-match miss.
type missMsg struct{ o *op }

// doneMsg reports one replacement chain fully drained.
type doneMsg struct{ o *op }

// fillMsg is the MemBlock payload: it rides to memory as the ReadReq
// cookie and comes back as the fill delivered to the MRU bank.
type fillMsg struct{ o *op }

// chainMsg carries a replacement-chain block to the next-farther bank:
// the multicast Fast-LRU push, the classic-LRU shift after a hit, and
// the miss-fill shift.
type chainMsg struct {
	o   *op
	blk bank.Block
}

// unitMsg is the unicast Fast-LRU combined unit: the data request
// traveling glued to the evicted block. hasBlock is false when the
// sending bank was not full and had nothing to evict.
type unitMsg struct {
	o        *op
	blk      bank.Block
	hasBlock bool
}

// storeMsg carries the hit block from the hit bank to the MRU bank.
type storeMsg struct {
	o   *op
	blk bank.Block
}

// promoteMsg carries a Promotion hit block one bank closer.
type promoteMsg struct {
	o   *op
	blk bank.Block
}

// demoteMsg carries the block a promotion displaced back to the hit
// bank's hole.
type demoteMsg struct {
	o   *op
	blk bank.Block
}

func (*probeMsg) ProtocolMessage()   {}
func (*dataMsg) ProtocolMessage()    {}
func (*missMsg) ProtocolMessage()    {}
func (*doneMsg) ProtocolMessage()    {}
func (*fillMsg) ProtocolMessage()    {}
func (*chainMsg) ProtocolMessage()   {}
func (*unitMsg) ProtocolMessage()    {}
func (*storeMsg) ProtocolMessage()   {}
func (*promoteMsg) ProtocolMessage() {}
func (*demoteMsg) ProtocolMessage()  {}

// AddMemCycles lets the memory model attribute its service time (wire +
// access + port stalls) to the filling operation; package mem calls it
// through the read-request cookie.
func (m *fillMsg) AddMemCycles(n int64) { m.o.memCycles += n }

// stashableOp returns the operation of a bank-bound message that must
// wait for the bank's own tag-match probe under multicast (replacement,
// store, and fill traffic), or nil for everything else.
func stashableOp(p flit.Payload) *op {
	switch m := p.(type) {
	case *chainMsg:
		return m.o
	case *unitMsg:
		return m.o
	case *storeMsg:
		return m.o
	case *promoteMsg:
		return m.o
	case *demoteMsg:
		return m.o
	case *fillMsg:
		return m.o
	}
	return nil
}
