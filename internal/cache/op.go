package cache

import (
	"fmt"

	"nucanet/internal/flit"
	"nucanet/internal/mem"
	"nucanet/internal/stats"
)

// Request is one CPU-visible L2 access handed to the Controller. Its
// issuer owns it: the controller reads Addr and Write when it dispatches
// the access, fills in the result fields, and lets go of the request once
// Done returns, so the issuer may reissue the same Request from inside
// Done.
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
// Ops come from their System's opPool and return to it once retired (see
// opPool).
type op struct {
	// req is the request being served, nil once its Done has run: the
	// issuer may reuse the Request from then on, so everything the
	// protocol needs afterwards is copied into the op (addr, write,
	// issued).
	req    *Request
	addr   uint64
	write  bool
	issued int64

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

	// pending counts the deliveries still due that point at this op: one
	// per scheduled or in-flight message, one per bank a multicast probe
	// will reach, one for an off-chip read until its fill lands (the
	// memory's reply carries the same cookie), and stashed messages until
	// they replay. The op retires once it has finished and pending is
	// zero; retired marks it back in the pool.
	pending int
	retired bool

	// Bit pos of probed records that the bank at position pos has
	// performed its tag-match for this operation; it is tracked only
	// when multicast is set. Multicast delivery order is not guaranteed
	// between a bank's probe replica (which may queue at a congested
	// ejection port) and later replacement traffic, so agents stash
	// chain/store messages until their probe has run. The mask is why a
	// column holds at most maxColumnBanks banks.
	multicast bool
	probed    uint64

	// One instance of every protocol message, pre-wired to this op.
	// Chain-style messages are mutated in place and resent hop by hop
	// (replacement chains are strictly sequential), so the whole
	// operation is one pooled object. memReq is the embedded off-chip
	// read request; its cookie is the fill message, which memory echoes
	// back as the MemBlock payload.
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

// reset zeroes the op for a new access and points every embedded message
// back at it.
func (o *op) reset() {
	*o = op{}
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
}

// maxColumnBanks is the widest column op.probed can track.
const maxColumnBanks = 64

func (o *op) chainDone() bool { return o.chainRecv >= o.chainNeeded }

// opPool recycles the ops of one System through a free list, the same
// discipline as flit.PacketPool: one pool serves one run at a time,
// touched only from the goroutine driving its kernel, and a worker's
// Arena carries it from run to run.
//
// Ownership: the controller takes an op at dispatch; every send of a
// message pointing at it adds to op.pending and every consumer — an
// agent's dispatch, the controller's Deliver, stale drops included —
// calls consumed once it is done with the op. The op is retired (put)
// when it has finished and nothing is left pointing at it, so a late
// MissNotify from a bank probed after the hit landed keeps its op alive
// until the controller drops it. After a drained run Live is zero.
type opPool struct {
	free []*op

	gets, puts, news uint64

	// quarantine parks retired ops instead of reusing them, so a message
	// that reaches an op after its retirement finds it still marked
	// retired and panics rather than corrupting a later access. The
	// conformance harnesses turn it on.
	quarantine bool
}

// get returns a reset op.
func (p *opPool) get() *op {
	p.gets++
	var o *op
	if n := len(p.free); n > 0 {
		o = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		p.news++
		o = new(op)
	}
	o.reset()
	return o
}

// check returns o, the op of a message just received; it panics when o
// is retired: the pending count missed a reference. Every receiver runs
// it before touching the op.
func (p *opPool) check(o *op) *op {
	if o.retired {
		panic(fmt.Sprintf("cache: message for retired op %d (col %d set %d)", o.id, o.col, o.set))
	}
	return o
}

// consumed records one delivery of a message pointing at o and retires o
// once it has finished and no delivery is left. It panics on more
// deliveries than sends.
func (p *opPool) consumed(o *op) {
	o.pending--
	if o.pending < 0 {
		panic(fmt.Sprintf("cache: op %d consumed more deliveries than were sent", o.id))
	}
	// Only a controller delivery finishes an op, and it calls consumed
	// after, so this is the one place an op can become retirable.
	if !o.finished || o.pending != 0 {
		return
	}
	o.retired = true
	p.puts++
	if !p.quarantine {
		p.free = append(p.free, o)
	}
}

// resetStats zeroes the accounting and keeps the free ops, so a pool
// carried from run to run reports each run alone.
func (p *opPool) resetStats() { p.gets, p.puts, p.news = 0, 0, 0 }

// stats returns the pool's accounting; Live is ops taken and not yet
// retired.
func (p *opPool) stats() flit.PoolStats {
	return flit.PoolStats{Gets: p.gets, Puts: p.puts, Allocated: p.news, Live: p.gets - p.puts}
}
