package cache

import (
	"testing"

	"nucanet/internal/bank"
	"nucanet/internal/flit"
	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

// TestStashHoldsReplacementUntilProbe drives the agent shell directly:
// under multicast, a replacement message arriving before the bank's own
// tag-match probe must be stashed untouched, and replayed the moment the
// probe marks the bank — and only messages of the probed operation may
// replay; traffic stashed for other operations stays put. The chain
// messages arrive in pooled packets that are recycled (and reused)
// before the probe lands, as the router does at ejection: a stash that
// kept packets instead of payloads would replay garbage.
func TestStashHoldsReplacementUntilProbe(t *testing.T) {
	d := testDesign(2, 2)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	a := s.agent(0, 1)

	mkOp := func(tag uint64) *op {
		o := s.ops.get()
		o.addr = s.AM.Compose(tag, 0, 0)
		o.col, o.set, o.tag = 0, 0, tag
		o.ctrl = s.Topo.Core
		o.hitPos = -1
		o.chainNeeded = 1
		o.multicast = true
		return o
	}
	o1 := mkOp(7)
	o1.chain.blk = bank.Block{Tag: 42}
	o2 := mkOp(8)
	o2.chain.blk = bank.Block{Tag: 43}

	var pool flit.PacketPool
	deliverChain := func(o *op) {
		pkt := pool.Get()
		pkt.Kind, pkt.Src, pkt.Dst, pkt.DstEp = flit.ReplaceBlock, a.node, a.node, flit.ToBank
		pkt.DstPos, pkt.Addr, pkt.Payload = int16(a.pos), o.addr, &o.chain
		a.Deliver(pkt, 0)
		pool.Put(pkt)
	}
	deliverChain(o1)
	deliverChain(o2)
	if len(a.stash) != 2 {
		t.Fatalf("pre-probe replacement not stashed: stash has %d messages, want 2", len(a.stash))
	}
	// Hand the recycled packet to an unrelated message before the probe.
	reused := pool.Get()
	reused.Kind, reused.Payload = flit.MissNotify, &o2.miss
	if ps := pool.Stats(); ps.Allocated != 1 {
		t.Fatalf("test packets were not recycled: %d allocated, want 1", ps.Allocated)
	}
	if got := a.bk.Occupancy(0); got != 0 {
		t.Fatalf("stashed replacement mutated the bank: occupancy %d, want 0", got)
	}

	// o1's probe arrives: its chain replays (the set has room, so the
	// block is absorbed), o2's chain keeps waiting for o2's probe.
	a.Deliver(&flit.Packet{
		Kind: flit.ReadReq, Src: s.Topo.Core, Dst: a.node, DstEp: flit.ToBank,
		DstPos: int16(a.pos), Addr: o1.addr, Payload: &o1.probe,
	}, 0)
	if o1.probed&a.bit() == 0 {
		t.Fatal("probe did not mark the bank probed")
	}
	if len(a.stash) != 1 || stashableOp(a.stash[0]) != o2 {
		t.Fatalf("stash after o1's probe should hold exactly o2's message, has %d", len(a.stash))
	}
	blocks := a.bk.Blocks(0)
	if len(blocks) != 1 || blocks[0].Tag != 42 {
		t.Fatalf("o1's replacement chain did not replay into the bank: %v", blocks)
	}
}

// TestColumnWindowCapsInFlightOps pins the controller's issue window: at
// most ColumnWindow operations of one column run concurrently; the rest
// queue FIFO, accrue queue wait, and dispatch as slots free up.
func TestColumnWindowCapsInFlightOps(t *testing.T) {
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 1)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))
	warm := gen.WarmBlocks(1)

	const col = 2
	var reqs []*Request
	for _, set := range []int{1, 2, 3} {
		addr := s.AM.Compose(warm[set*s.AM.Columns+col][0], set, col)
		reqs = append(reqs, s.Issue(addr, false, nil))
	}
	cs := &s.Ctrl.cols[col]
	if len(cs.active) != ColumnWindow {
		t.Fatalf("column has %d in-flight ops, want window of %d", len(cs.active), ColumnWindow)
	}
	if len(cs.q) != 1 {
		t.Fatalf("third request should queue behind the window, queue has %d", len(cs.q))
	}
	if err := s.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	// All three are warm MRU hits with identical service latency, so the
	// queued request — dispatched only when a slot freed — finishes last.
	if reqs[2].DataAt <= reqs[0].DataAt || reqs[2].DataAt <= reqs[1].DataAt {
		t.Fatalf("queued request did not wait for the window: data at %d, %d, %d",
			reqs[0].DataAt, reqs[1].DataAt, reqs[2].DataAt)
	}
	if s.Ctrl.QueueWait == 0 {
		t.Fatal("queued request accrued no QueueWait")
	}
	// The pop keeps the queue's array (no reallocation on the next
	// Issue) and clears the vacated slot, so a completed request is not
	// pinned by it.
	if len(cs.q) != 0 || cap(cs.q) == 0 {
		t.Fatalf("drained queue has len %d cap %d, want an empty queue that kept its array", len(cs.q), cap(cs.q))
	}
	for i, r := range cs.q[:cap(cs.q)] {
		if r != nil {
			t.Fatalf("queue slot %d still holds a popped request", i)
		}
	}
}

// TestColumnTooTallRejected: an operation tracks its column's probed
// banks in a 64-bit mask, so construction refuses a taller column.
func TestColumnTooTallRejected(t *testing.T) {
	if _, err := New(sim.NewKernel(), testDesign(2, maxColumnBanks+1), FastLRU, Multicast); err == nil {
		t.Fatalf("a %d-bank column must be rejected", maxColumnBanks+1)
	}
	if _, err := New(sim.NewKernel(), testDesign(2, maxColumnBanks), FastLRU, Multicast); err != nil {
		t.Fatalf("a %d-bank column must build: %v", maxColumnBanks, err)
	}
}
