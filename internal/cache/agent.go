package cache

import (
	"fmt"

	"nucanet/internal/bank"
	"nucanet/internal/flit"
	"nucanet/internal/mem"
	"nucanet/internal/topology"
)

// agent is the policy-free protocol shell of one cache bank. It receives
// protocol packets at its router, books bank accesses (serialized
// through busyUntil), keeps the multicast probe stash and the directory
// policy's ownership counts, and hands each typed message to the
// system's PolicyEngine, which mutates the bank and emits follow-on
// messages through the shell's send helpers.
type agent struct {
	sys  *System
	node topology.NodeID
	col  int
	pos  int // position within the column, 0 = MRU bank
	last int // position of the LRU bank
	bk   bank.Bank

	busyUntil int64
	sched     scheduler
	stash     []flit.Payload // replacement traffic awaiting this bank's probe

	// Accesses counts bank accesses performed (Fast-LRU roughly halves
	// this versus classic LRU — a paper claim worth measuring).
	Accesses uint64
}

// access books one bank access of the given duration and returns its
// completion time.
func (a *agent) access(now int64, dur int) int64 {
	start := now
	if start < a.busyUntil {
		start = a.busyUntil
	}
	a.busyUntil = start + int64(dur)
	a.Accesses++
	a.sys.tel.BankAccess(a.col, a.pos)
	return a.busyUntil
}

func (a *agent) full(set int) bool {
	return a.bk.Occupancy(set) >= a.bk.Ways()
}

// send schedules a packet of operation o for injection at cycle t. The
// packet is built now, from the network's pool, and waits in the agent's
// send queue. A payload (a message embedded in o) counts as one delivery
// o must wait for before it can retire.
func (a *agent) send(t int64, kind flit.Kind, dst topology.NodeID, ep flit.Endpoint, o *op, payload flit.Payload) {
	pkt := a.sys.Net.NewPacket(kind, a.node, dst, ep, o.addr)
	if payload != nil {
		pkt.Payload = payload
		o.pending++
	}
	a.sched.at(t, pkt)
}

// sendBank schedules a message of operation o to the bank at position pos
// of this agent's column, addressing it both by router (Dst) and by
// column position (DstPos) so nodes hosting several banks demux
// correctly.
func (a *agent) sendBank(t int64, kind flit.Kind, pos int, o *op, payload flit.Payload) {
	pkt := a.sys.Net.NewPacket(kind, a.node, a.sys.bankNode(a.col, pos), flit.ToBank, o.addr)
	pkt.DstPos = int16(pos)
	pkt.Payload = payload
	o.pending++
	a.sched.at(t, pkt)
}

// dataKind returns the packet kind answering the core: block data for
// reads, a one-flit acknowledgment for writes.
func dataKind(o *op, fromHit bool) flit.Kind {
	if o.write {
		return flit.WriteDone
	}
	if fromHit {
		return flit.HitData
	}
	return flit.DataToCore
}

// Deliver dispatches one protocol packet. Under multicast, replacement and
// store messages for an operation are stashed until this bank's tag-match
// probe for that operation has run: the probe travels as a router replica
// that can queue at a congested ejection port, so unlike the paper's
// single downward path, arrival order is not inherently guaranteed here.
// The stash keeps the payload, never the packet: the router recycles pkt
// once Deliver returns (see network.Endpoint).
func (a *agent) Deliver(pkt *flit.Packet, now int64) {
	if o := stashableOp(pkt.Payload); o != nil && o.multicast && o.probed&a.bit() == 0 {
		a.sys.ops.check(o)
		a.stash = append(a.stash, pkt.Payload)
		return
	}
	a.dispatch(pkt.Payload, now)
}

// bit is this bank's position in an op's probed mask.
func (a *agent) bit() uint64 { return 1 << uint(a.pos) }

// dispatch hands a bank-bound message to the policy engine — an
// exhaustive type switch over the bank-side message catalogue — and then
// consumes the delivery. The probe case marks the bank probed (replaying
// stashed traffic) after the engine's tag-match has run,
// policy-independently.
func (a *agent) dispatch(p flit.Payload, now int64) {
	var o *op
	switch m := p.(type) {
	case *probeMsg:
		o = a.sys.ops.check(m.o)
		a.sys.eng.Probe(a, o, now)
		a.markProbed(o, now)
	case *fillMsg:
		o = a.sys.ops.check(m.o)
		if d := a.sys.Dir; d != nil {
			d.fill(o.tag)
		}
		a.sys.eng.Fill(a, o, now)
	case *chainMsg:
		o = a.sys.ops.check(m.o)
		a.sys.eng.Chain(a, m, now)
	case *unitMsg:
		o = a.sys.ops.check(m.o)
		a.sys.eng.Unit(a, m, now)
	case *storeMsg:
		o = a.sys.ops.check(m.o)
		a.sys.eng.Store(a, m, now)
	case *promoteMsg:
		o = a.sys.ops.check(m.o)
		a.sys.eng.Promote(a, m, now)
	case *demoteMsg:
		o = a.sys.ops.check(m.o)
		a.sys.eng.Demote(a, m, now)
	default:
		panic(fmt.Sprintf("cache: bank %d/%d got unexpected payload %T", a.col, a.pos, p))
	}
	a.sys.ops.consumed(o)
}

// markProbed records this bank's probe and replays any stashed messages
// that were waiting for it.
func (a *agent) markProbed(o *op, now int64) {
	if !o.multicast {
		return
	}
	o.probed |= a.bit()
	if len(a.stash) == 0 {
		return
	}
	pending := a.stash
	a.stash = a.stash[:0]
	for _, p := range pending {
		if stashableOp(p) == o {
			a.dispatch(p, now)
		} else {
			a.stash = append(a.stash, p)
		}
	}
}

// bookHit records a tag-match hit at this bank: telemetry, the combined
// tag+data access, critical-path accounting, and the hit position the
// controller reports to the request. Returns the access completion time.
func (a *agent) bookHit(o *op, now int64, dur int) int64 {
	a.recordHit(o)
	fin := a.access(now, dur)
	o.bankCycles += int64(dur)
	o.hitPos = a.pos
	return fin
}

// recordHit counts a tag-match hit at this bank in the telemetry and,
// under the directory policy, against the block's owner.
func (a *agent) recordHit(o *op) {
	a.sys.tel.BankHit(a.col, a.pos)
	if d := a.sys.Dir; d != nil {
		d.hit(o.tag)
	}
}

// touchInPlace completes a hit whose block stays in this bank: promote
// it to the bank-local MRU way, answer the core, and release the column
// immediately (no replacement chain runs).
func (a *agent) touchInPlace(o *op, way int, fin int64) {
	a.bk.Touch(o.set, way)
	if o.write {
		a.bk.SetDirty(o.set, 0)
	}
	o.chainNeeded = 0
	a.sendData(o, fin, true)
}

// sendData answers the core: block data for reads, an acknowledgment
// for writes.
func (a *agent) sendData(o *op, fin int64, fromHit bool) {
	a.send(fin, dataKind(o, fromHit), o.ctrl, flit.ToCore, o, &o.data)
}

// sendDone reports one replacement chain drained.
func (a *agent) sendDone(o *op, fin int64) {
	a.send(fin, flit.CompleteNotify, o.ctrl, flit.ToCore, o, &o.done)
}

// victimLeaves retires a block pushed out of the column, attributed to
// the access that displaced it: the directory (inert unless the
// directory policy is active) records the drop, and a dirty block is
// written back to memory. Every policy's drop sites route through here,
// so one call counts every drop.
func (a *agent) victimLeaves(o *op, blk bank.Block, fin int64) {
	if d := a.sys.Dir; d != nil {
		d.dropped(blk.Tag, o.tag)
	}
	if blk.Dirty {
		a.send(fin, flit.WriteBack, a.sys.Topo.Mem, flit.ToMem, o, nil)
	}
}

// missNotify books a multicast miss probe (tag-only access), reports it
// to the controller, and returns the access completion time. Only the
// farthest bank's probe is on the miss decision's critical path — and
// only when no closer bank has already hit.
func (a *agent) missNotify(o *op, now int64, lat bank.Latency) int64 {
	fin := a.access(now, lat.TagOnly)
	if a.pos == a.last && o.hitPos < 0 {
		o.bankCycles += int64(lat.TagOnly)
	}
	a.send(fin, flit.MissNotify, o.ctrl, flit.ToCore, o, &o.miss)
	return fin
}

// missForward books a unicast miss probe (tag-only access) and forwards
// the search to the next bank, or asks memory at the last one.
func (a *agent) missForward(o *op, now int64, lat bank.Latency) {
	fin := a.access(now, lat.TagOnly)
	o.bankCycles += int64(lat.TagOnly)
	if a.pos < a.last {
		a.forwardProbe(o, fin)
		return
	}
	a.requestMemory(o, fin)
}

// forwardProbe sends the tag-match request on to the next-farther bank.
func (a *agent) forwardProbe(o *op, fin int64) {
	kind := flit.ReadReq
	if o.write {
		kind = flit.WriteData
	}
	a.sendBank(fin, kind, a.pos+1, o, &o.probe)
}

// insert installs a block as this bank's set MRU, emitting the
// conservation probe the protocol invariant checker reconciles.
func (a *agent) insert(set int, blk bank.Block) {
	a.bk.Insert(set, blk)
	a.sys.tel.BlockInserted(a.col, a.pos, set, blk.Tag)
}

// evictLRU removes and returns this bank's set LRU (the set must be
// non-empty — engines evict only from full sets).
func (a *agent) evictLRU(set int) bank.Block {
	blk, _ := a.bk.EvictLRU(set)
	a.sys.tel.BlockEvicted(a.col, a.pos, set, blk.Tag)
	return blk
}

// removeWay extracts a resident way (the hit block leaving for another
// bank).
func (a *agent) removeWay(set, way int) bank.Block {
	blk := a.bk.Remove(set, way)
	a.sys.tel.BlockEvicted(a.col, a.pos, set, blk.Tag)
	return blk
}

// requestMemory asks the off-chip memory for the block, directing the
// reply to the column's MRU bank. The read request and its cookie (the
// fill message memory echoes back) are embedded in the op, so the miss
// path allocates nothing; the one pending delivery the send counts is
// consumed when the fill lands.
func (a *agent) requestMemory(o *op, fin int64) {
	o.memReq = mem.ReadReq{
		ReplyTo:  a.sys.bankNode(o.col, 0),
		ReplyEp:  flit.ToBank,
		ReplyPos: 0,
		Cookie:   &o.fill,
	}
	a.send(fin, flit.MemReadReq, a.sys.Topo.Mem, flit.ToMem, o, &o.memReq)
}
