package cache

import (
	"fmt"

	"nucanet/internal/flit"
	"nucanet/internal/mem"
	"nucanet/internal/stats"
)

// Controller is the cache controller at the core: it accepts CPU requests,
// serializes operations per bank-set column, launches the tag-match
// (unicast probe or multicast), invokes memory after a full multicast
// miss, and tracks completion (data at core + replacement chain drained).
// The controller is policy-free: which banks move which blocks is the
// PolicyEngine's business; the controller only counts the completions the
// engine's protocol announces.
type Controller struct {
	sys  *System
	cols []colState

	// Node is the router this controller attaches to (the topology's
	// core router for single-core systems; CMP systems place several
	// controllers at different routers).
	Node int

	// Issued counts accepted requests; QueueWait accumulates cycles
	// requests waited for their column to free up.
	Issued    uint64
	QueueWait int64
}

// ColumnWindow is how many operations may be in flight per bank-set
// column: the paper's controller keeps a small (2-entry) issue queue per
// spike so requests to different sets of one column pipeline. Operations
// on the same set always serialize (replacement chains are stateful).
const ColumnWindow = 2

type colState struct {
	q      []*Request
	active []*op
}

// queueCap is a column queue's starting capacity, so the queues do not
// regrow during a run: the deepest queue a column reaches on the
// benchmark's runs is 2 with one core (Designs A and F) and 7 with H2's
// eight.
const queueCap = 8

func newController(sys *System) *Controller {
	return NewControllerAt(sys, sys.Topo.Core)
}

// NewControllerAt creates an additional controller attached at a given
// router — the CMP building block. The caller attaches it to the network
// and routes requests to it (each column must be owned by exactly one
// controller; column state is controller-local).
func NewControllerAt(sys *System, node int) *Controller {
	n := sys.Topo.Columns()
	c := &Controller{sys: sys, Node: node, cols: sys.arena.colSlab(n)}
	// Each column's queue and window are carved side by side from two
	// slabs; a queue that outgrows its carve moves to the heap alone.
	qs, as := sys.arena.reqSlab(n*queueCap), sys.arena.activeSlab(n*ColumnWindow)
	for i := range c.cols {
		c.cols[i].q = qs[i*queueCap : i*queueCap : (i+1)*queueCap]
		c.cols[i].active = as[i*ColumnWindow : i*ColumnWindow : (i+1)*ColumnWindow]
	}
	return c
}

// Issue accepts one CPU request, clearing its result fields (a reissued
// request must not report its previous access). The request's Done
// callback (if any) fires when the data or write acknowledgment reaches
// the core; the controller does not touch the request after Done.
func (c *Controller) Issue(r *Request, now int64) {
	r.Issued = now
	r.DataAt = 0
	r.Hit = false
	r.HitBank = -1
	r.Breakdown = stats.Breakdown{}
	c.Issued++
	col := c.sys.AM.ColumnOf(r.Addr)
	cs := &c.cols[col]
	cs.q = append(cs.q, r)
	c.dispatch(col, now)
}

// dispatch starts queued requests of a column while the column window has
// room and the head of the queue does not conflict on its set with an
// in-flight operation. Requests to one column stay FIFO.
func (c *Controller) dispatch(col int, now int64) {
	cs := &c.cols[col]
	for len(cs.active) < ColumnWindow && len(cs.q) > 0 {
		r := cs.q[0]
		set := c.sys.AM.SetOf(r.Addr)
		conflict := false
		for _, a := range cs.active {
			if a.set == set {
				conflict = true
				break
			}
		}
		if conflict {
			return
		}
		// Pop by copy-down: re-slicing from the front would shed the
		// array's capacity (a reallocation on every later Issue) and
		// leave the popped request pinned in the abandoned slot.
		n := copy(cs.q, cs.q[1:])
		cs.q[n] = nil
		cs.q = cs.q[:n]
		c.QueueWait += now - r.Issued
		o := c.sys.ops.get()
		o.req = r
		o.addr, o.write, o.issued = r.Addr, r.Write, r.Issued
		o.col = col
		o.set = set
		o.tag = c.sys.AM.TagOf(r.Addr)
		o.ctrl = c.Node
		o.hitPos = -1
		o.chainNeeded = 1
		c.sys.opSeq++
		o.id = c.sys.opSeq
		o.multicast = c.sys.Mode == Multicast
		cs.active = append(cs.active, o)
		c.sys.tel.OpIssued(now, o.id, o.col, o.set, o.write)

		kind := flit.ReadReq
		if o.write {
			kind = flit.WriteData
		}
		var pkt *flit.Packet
		if o.multicast {
			// The probe addresses every bank of the column: all routers on
			// the path deliver replicas, and DstPos -1 fans each delivery
			// out to all banks sharing the router (concentrated nodes).
			// Each bank consumes its own delivery.
			last := c.sys.lastPos()
			pkt = c.sys.Net.NewPacket(kind, c.Node, c.sys.bankNode(col, last), flit.ToBank, o.addr)
			pkt.PathDeliver = last > 0
			pkt.DstPos = -1
			o.pending += last + 1
		} else {
			pkt = c.sys.Net.NewPacket(kind, c.Node, c.sys.bankNode(col, 0), flit.ToBank, o.addr)
			o.pending++
		}
		pkt.Payload = &o.probe
		c.sys.Net.Send(pkt, now)
	}
}

// Deliver consumes core-bound protocol packets — an exhaustive type
// switch over the controller-side message catalogue. Messages from a
// completed multicast operation (e.g. a miss notification from a bank
// probed after the hit landed) are stale and dropped, but still consumed:
// the op retires only once the last of them has landed.
func (c *Controller) Deliver(pkt *flit.Packet, now int64) {
	var o *op
	switch m := pkt.Payload.(type) {
	case *dataMsg:
		o = c.sys.ops.check(m.o)
		if !o.finished {
			c.dataArrived(o, now)
		}
	case *doneMsg:
		o = c.sys.ops.check(m.o)
		if !o.finished {
			o.chainRecv++
			c.checkComplete(o, now)
		}
	case *missMsg:
		o = c.sys.ops.check(m.o)
		if !o.finished {
			c.missArrived(o, now)
		}
	default:
		panic(fmt.Sprintf("cache: controller got unexpected %v", pkt))
	}
	c.sys.ops.consumed(o)
}

// missArrived counts one bank's multicast miss report; once every bank
// has missed, it invokes the off-chip memory (multicast only; unicast
// asks from the LRU bank). The read counts as one pending delivery until
// its fill lands.
func (c *Controller) missArrived(o *op, now int64) {
	o.missCount++
	if o.missCount != c.sys.lastPos()+1 || o.hitPos >= 0 {
		return
	}
	o.memReq = mem.ReadReq{
		ReplyTo:  c.sys.bankNode(o.col, 0),
		ReplyEp:  flit.ToBank,
		ReplyPos: 0,
		Cookie:   &o.fill,
	}
	req := c.sys.Net.NewPacket(flit.MemReadReq, c.Node, c.sys.Topo.Mem, flit.ToMem, o.addr)
	req.Payload = &o.memReq
	o.pending++
	c.sys.Net.Send(req, now)
}

// dataArrived is the CPU-visible completion: fill in the request's
// results, record latency and stats, and hand the request back to its
// issuer through Done. The op forgets the request first: the issuer may
// reissue it from inside Done.
func (c *Controller) dataArrived(o *op, now int64) {
	if o.dataDone {
		return
	}
	o.dataDone = true
	r := o.req
	o.req = nil
	r.DataAt = now
	r.Hit = o.hitPos >= 0
	r.HitBank = o.hitPos
	total := now - o.issued
	net := total - o.bankCycles - o.memCycles
	if net < 0 {
		net = 0
	}
	r.Breakdown = stats.Breakdown{Bank: o.bankCycles, Network: net, Memory: o.memCycles}
	if r.Hit {
		c.sys.Lat.RecordHit(total, r.HitBank, r.Breakdown)
	} else {
		c.sys.Lat.RecordMiss(total, r.Breakdown)
	}
	c.sys.tel.OpData(now, o.id, r.Hit, r.HitBank)
	if r.Done != nil {
		r.Done(r, now)
	}
	c.checkComplete(o, now)
}

// checkComplete frees the column when both the data and the replacement
// chain have finished, and dispatches the next queued request. The op
// itself retires later, in consumed, once no message points at it.
func (c *Controller) checkComplete(o *op, now int64) {
	if !o.dataDone || !o.chainDone() || o.finished {
		return
	}
	o.finished = true
	c.sys.tel.OpFinished(now, o.id)
	c.sys.Lat.AddOccupancy(now - o.issued)
	cs := &c.cols[o.col]
	for i, a := range cs.active {
		if a == o {
			cs.active = append(cs.active[:i], cs.active[i+1:]...)
			break
		}
	}
	c.dispatch(o.col, now)
}

// Pending returns the number of requests queued or in flight.
func (c *Controller) Pending() int {
	n := 0
	for i := range c.cols {
		n += len(c.cols[i].q) + len(c.cols[i].active)
	}
	return n
}
