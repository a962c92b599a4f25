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

func newController(sys *System) *Controller {
	return NewControllerAt(sys, sys.Topo.Core)
}

// NewControllerAt creates an additional controller attached at a given
// router — the CMP building block. The caller attaches it to the network
// and routes requests to it (each column must be owned by exactly one
// controller; column state is controller-local).
func NewControllerAt(sys *System, node int) *Controller {
	return &Controller{sys: sys, Node: node, cols: make([]colState, sys.Topo.Columns())}
}

// Issue accepts one CPU request. The request's Done callback (if any)
// fires when the data or write acknowledgment reaches the core.
func (c *Controller) Issue(r *Request, now int64) {
	r.Issued = now
	r.HitBank = -1
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
		o := newOp()
		o.req = r
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
		c.sys.tel.OpIssued(now, o.id, o.col, o.set, r.Write)

		kind := flit.ReadReq
		if r.Write {
			kind = flit.WriteData
		}
		var pkt *flit.Packet
		if o.multicast {
			// The probe addresses every bank of the column: all routers on
			// the path deliver replicas, and DstPos -1 fans each delivery
			// out to all banks sharing the router (concentrated nodes).
			last := c.sys.lastPos()
			pkt = c.sys.Net.NewPacket(kind, c.Node, c.sys.bankNode(col, last), flit.ToBank, r.Addr)
			pkt.PathDeliver = last > 0
			pkt.DstPos = -1
		} else {
			pkt = c.sys.Net.NewPacket(kind, c.Node, c.sys.bankNode(col, 0), flit.ToBank, r.Addr)
		}
		pkt.Payload = &o.probe
		c.sys.Net.Send(pkt, now)
	}
}

// Deliver consumes core-bound protocol packets — an exhaustive type
// switch over the controller-side message catalogue. Messages from a
// completed multicast operation (e.g. a miss notification from a bank
// probed after the hit landed) are stale and dropped.
func (c *Controller) Deliver(pkt *flit.Packet, now int64) {
	switch m := pkt.Payload.(type) {
	case *dataMsg:
		if m.o.finished {
			return
		}
		c.dataArrived(m.o, now)
	case *doneMsg:
		if m.o.finished {
			return
		}
		m.o.chainRecv++
		c.checkComplete(m.o, now)
	case *missMsg:
		o := m.o
		if o.finished {
			return
		}
		o.missCount++
		if o.missCount == c.sys.lastPos()+1 && o.hitPos < 0 {
			// Every bank reported a miss: invoke the off-chip memory
			// (multicast only; unicast asks from the LRU bank).
			o.memReq = mem.ReadReq{
				ReplyTo:  c.sys.bankNode(o.col, 0),
				ReplyEp:  flit.ToBank,
				ReplyPos: 0,
				Cookie:   &o.fill,
			}
			req := c.sys.Net.NewPacket(flit.MemReadReq, c.Node, c.sys.Topo.Mem, flit.ToMem, o.req.Addr)
			req.Payload = &o.memReq
			c.sys.Net.Send(req, now)
		}
	default:
		panic(fmt.Sprintf("cache: controller got unexpected %v", pkt))
	}
}

// dataArrived is the CPU-visible completion: record latency and stats.
func (c *Controller) dataArrived(o *op, now int64) {
	if o.dataDone {
		return
	}
	o.dataDone = true
	r := o.req
	r.DataAt = now
	total := now - r.Issued
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
// chain have finished, and dispatches the next queued request.
func (c *Controller) checkComplete(o *op, now int64) {
	if !o.dataDone || !o.chainDone() || o.finished {
		return
	}
	o.finished = true
	c.sys.tel.OpFinished(now, o.id)
	c.sys.Lat.AddOccupancy(now - o.req.Issued)
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
