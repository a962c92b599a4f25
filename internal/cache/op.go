package cache

import (
	"nucanet/internal/mem"
	"nucanet/internal/stats"
)

// Request is one CPU-visible L2 access handed to the Controller.
type Request struct {
	Addr  uint64
	Write bool

	// Issued is stamped when the controller accepts the request;
	// DataAt when the data (or write acknowledgment) reaches the core.
	Issued int64
	DataAt int64

	Hit     bool
	HitBank int // bank position in the column (0 = MRU), -1 on miss

	// Breakdown splits the access latency into its three sources.
	Breakdown stats.Breakdown

	// Done, if set, runs when the data arrives at the core (the
	// CPU-visible completion; replacement may still be draining).
	Done func(r *Request, now int64)
}

// Latency returns the CPU-visible access latency.
func (r *Request) Latency() int64 { return r.DataAt - r.Issued }

// op is the shared protocol state of one in-flight column operation; every
// packet of the operation carries a typed message pointing back to it.
type op struct {
	req *Request
	id  uint64 // system-wide operation serial (telemetry correlation)
	col int
	set int
	tag uint64

	// ctrl is the router hosting the controller that owns this
	// operation; banks address notifications and data there. Single-core
	// systems use the topology's core router; CMP systems home each
	// column on one of several controllers.
	ctrl int

	hitPos int // bank position of the hit, -1 while unknown / miss

	// Critical-path accounting. Bank and memory cycles accumulate as the
	// access proceeds; network time falls out as the remainder.
	bankCycles int64
	memCycles  int64

	// Controller-side completion tracking. chainNeeded is the number of
	// CompleteNotify packets that must arrive before the column's
	// replacement traffic has fully drained: usually one, but a
	// multicast Fast-LRU hit beyond the MRU bank produces two (the hit
	// block landing at the MRU bank, and the push chain terminating at
	// the hit bank's hole), and an MRU-bank hit needs none.
	missCount   int
	dataDone    bool
	chainNeeded int
	chainRecv   int
	finished    bool

	// Bit pos of probed records that the bank at position pos has
	// performed its tag-match for this operation; it is tracked only
	// when multicast is set. Multicast delivery order is not guaranteed
	// between a bank's probe replica (which may queue at a congested
	// ejection port) and later replacement traffic, so agents stash
	// chain/store messages until their probe has run. The mask is why a
	// column holds at most maxColumnBanks banks.
	multicast bool
	probed    uint64

	// One instance of every protocol message, pre-wired to this op by
	// newOp. Chain-style messages are mutated in place and resent hop by
	// hop (replacement chains are strictly sequential), so the whole
	// operation costs a single allocation. memReq is the embedded
	// off-chip read request; its cookie is the fill message, which
	// memory echoes back as the MemBlock payload.
	probe   probeMsg
	data    dataMsg
	miss    missMsg
	done    doneMsg
	fill    fillMsg
	chain   chainMsg
	unit    unitMsg
	store   storeMsg
	promote promoteMsg
	demote  demoteMsg
	memReq  mem.ReadReq
}

// newOp builds the per-access protocol state with every embedded message
// pointing back at it.
func newOp() *op {
	o := &op{}
	o.probe.o = o
	o.data.o = o
	o.miss.o = o
	o.done.o = o
	o.fill.o = o
	o.chain.o = o
	o.unit.o = o
	o.store.o = o
	o.promote.o = o
	o.demote.o = o
	return o
}

// maxColumnBanks is the widest column op.probed can track.
const maxColumnBanks = 64

func (o *op) chainDone() bool { return o.chainRecv >= o.chainNeeded }
