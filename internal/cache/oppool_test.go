package cache

import (
	"strings"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/sim"
	"nucanet/internal/stats"
	"nucanet/internal/telemetry"
	"nucanet/internal/trace"
)

// warmMRU warms s from the gcc generator and returns the MRU tag of
// every (set, column), indexed set*Columns+column.
func warmMRU(t *testing.T, s *System) [][]uint64 {
	t.Helper()
	gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 1)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))
	return gen.WarmBlocks(1)
}

// TestReissuedRequestReportsFreshResult: a caller-owned request is
// reused across accesses, so Issue must clear every result field, not
// only HitBank. A request that hit and is then reissued for a miss
// reports the miss and a breakdown of its own, and while it is in flight
// reads as unanswered.
func TestReissuedRequestReportsFreshResult(t *testing.T) {
	s := MustNew(sim.NewKernel(), testDesign(4, 4), FastLRU, Multicast)
	warm := warmMRU(t, s)
	const set, col = 2, 1
	r := &Request{Addr: s.AM.Compose(warm[set*s.AM.Columns+col][0], set, col)}
	s.Submit(r)
	if err := s.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.Hit || r.HitBank != 0 {
		t.Fatalf("warm MRU access: hit=%v bank=%d, want an MRU hit", r.Hit, r.HitBank)
	}
	hit := *r

	r.Addr = s.AM.Compose(1<<20, set, col)
	s.Submit(r)
	if r.Hit || r.HitBank != -1 || r.DataAt != 0 || r.Breakdown != (stats.Breakdown{}) {
		t.Fatalf("reissued request in flight still reports its last access: %+v", *r)
	}
	if err := s.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Hit || r.HitBank != -1 {
		t.Fatalf("miss reported hit=%v bank=%d", r.Hit, r.HitBank)
	}
	if r.Breakdown == hit.Breakdown || r.Breakdown.Memory == 0 || r.DataAt <= hit.DataAt {
		t.Fatalf("miss breakdown %+v at %d, after hit %+v at %d: want a fresh off-chip breakdown",
			r.Breakdown, r.DataAt, hit.Breakdown, hit.DataAt)
	}
}

// TestLateMissNotifyKeepsOpLive builds the case that used to keep ops
// off a free list: the link into the far bank row is slow, so an MRU hit
// finishes its op before the multicast probe reaches the far bank. The
// op must stay live — parked in quarantine, never reused — until that
// bank's MissNotify has been consumed, and retire exactly then.
func TestLateMissNotifyKeepsOpLive(t *testing.T) {
	d := testDesign(4, 4)
	d.Params.VertDelay = []int{1, 1, 1, 40}
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	warm := warmMRU(t, s)
	s.ops.quarantine = true
	const set, col, far = 0, 2, 3
	r := s.Issue(s.AM.Compose(warm[set*s.AM.Columns+col][0], set, col), false, nil)
	o := s.Ctrl.cols[col].active[0]

	step := func(until func() bool) {
		t.Helper()
		for i := 0; !until(); i++ {
			if i > 10_000 || !k.Step() {
				t.Fatal("kernel went idle before the awaited event")
			}
		}
	}
	step(func() bool { return o.finished })
	if r.DataAt == 0 || !r.Hit {
		t.Fatalf("op finished without answering its MRU hit: %+v", *r)
	}
	if o.probed&(1<<far) != 0 {
		t.Fatal("far bank probed before the hit finished: the slow link did not delay it")
	}
	if o.retired || o.pending == 0 || s.ops.stats().Live != 1 {
		t.Fatalf("finished op with the far probe still due: retired=%v pending=%d live=%d",
			o.retired, o.pending, s.ops.stats().Live)
	}

	step(func() bool { return o.probed&(1<<far) != 0 })
	if o.retired || o.pending == 0 {
		t.Fatalf("op retired while the far bank's MissNotify is in flight (pending=%d)", o.pending)
	}
	step(func() bool { return o.retired })
	if o.pending != 0 {
		t.Fatalf("op retired with %d deliveries due", o.pending)
	}
	if err := s.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	if st := s.ops.stats(); st.Live != 0 || st.Gets != 1 || st.Puts != 1 {
		t.Fatalf("op pool after drain: %+v, want one op handed out and retired", st)
	}
	if len(s.ops.free) != 0 {
		t.Fatal("a quarantined op reached the free list")
	}
}

// nopProbe is a Protocol probe that ignores every event.
type nopProbe struct{}

func (nopProbe) OpIssued(int64, uint64, int, int, bool) {}
func (nopProbe) OpData(int64, uint64, bool, int)        {}
func (nopProbe) OpFinished(int64, uint64)               {}
func (nopProbe) BlockInserted(int, int, int, uint64)    {}
func (nopProbe) BlockEvicted(int, int, int, uint64)     {}

// TestQuarantineFollowsProtocolProbe: a system with a Protocol probe
// parks every retired op instead of reusing it, and the next system
// built on the same arena without one reuses ops again: the setting
// does not ride the pool from run to run.
func TestQuarantineFollowsProtocolProbe(t *testing.T) {
	ar := new(Arena)
	runFour := func(probe telemetry.ProtocolProbe) flit.PoolStats {
		t.Helper()
		ar.Reset()
		s, err := NewPrebuilt(sim.NewKernel(), testDesign(4, 4), FastLRU, Multicast, Prebuilt{Arena: ar})
		if err != nil {
			t.Fatal(err)
		}
		if probe != nil {
			s.EnableTelemetry(&telemetry.Collector{Protocol: probe})
		}
		for tag := range uint64(4) {
			s.Issue(s.AM.Compose(tag, 0, 0), false, nil)
			if err := s.Drain(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		return s.ops.stats()
	}
	if st := runFour(nopProbe{}); st.Puts != 4 || st.Allocated != 4 || len(ar.ops.free) != 0 {
		t.Fatalf("with a protocol probe: %+v, %d ops free; want every retired op parked", st, len(ar.ops.free))
	}
	if st := runFour(nil); st.Puts != 4 || st.Allocated != 1 || len(ar.ops.free) != 1 {
		t.Fatalf("next system without a probe: %+v, %d ops free; want one op reused four times", st, len(ar.ops.free))
	}
}

// TestRetiredOpMessagePanics: a message that reaches a retired op means
// the pending count missed a reference; the receiver must fail loudly,
// not serve a later access through a reused op.
func TestRetiredOpMessagePanics(t *testing.T) {
	s := MustNew(sim.NewKernel(), testDesign(4, 4), FastLRU, Multicast)
	s.ops.quarantine = true
	o := s.ops.get()
	o.finished, o.pending = true, 1
	s.ops.consumed(o)
	if !o.retired {
		t.Fatal("finished op with its last delivery consumed did not retire")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "retired op") {
			t.Fatalf("late message for a retired op: recovered %q, want a retired-op panic", msg)
		}
	}()
	s.Ctrl.Deliver(&flit.Packet{Kind: flit.MissNotify, Payload: &o.miss}, 0)
}

// TestDrainReportsUnretiredOps: an op that never retires is a leak the
// drain check names, so every drained run — core's included — proves
// its op pool balanced.
func TestDrainReportsUnretiredOps(t *testing.T) {
	s := MustNew(sim.NewKernel(), testDesign(4, 4), FastLRU, Multicast)
	s.ops.get()
	if err := s.Drain(10); err == nil || !strings.Contains(err.Error(), "never retired") {
		t.Fatalf("drain with a live op: err %v, want a never-retired error", err)
	}
}

// TestDrainReportsLeakedPacket: a pooled packet taken and never sent is
// a leak the drain check names.
func TestDrainReportsLeakedPacket(t *testing.T) {
	s := MustNew(sim.NewKernel(), testDesign(4, 4), FastLRU, Multicast)
	s.Net.NewPacket(flit.ReadReq, s.Topo.Core, s.Topo.Mem, flit.ToMem, 0)
	if err := s.Drain(10); err == nil || !strings.Contains(err.Error(), "1 packets never returned") {
		t.Fatalf("drain with a packet out of the pool: err %v, want a leaked-packet error", err)
	}
}

// TestOpReuseResetsState: a recycled op carries nothing of its previous
// access and its embedded messages point back at it.
func TestOpReuseResetsState(t *testing.T) {
	var p opPool
	o := p.get()
	o.addr, o.hitPos, o.probed, o.missCount, o.finished, o.pending = 42, 3, 0b101, 2, true, 1
	o.chain.blk.Tag = 9
	p.consumed(o)
	again := p.get()
	if again != o {
		t.Fatal("retired op was not reused")
	}
	if again.addr != 0 || again.probed != 0 || again.missCount != 0 || again.finished || again.retired || again.chain.blk.Tag != 0 {
		t.Fatalf("reused op kept state from its previous access: %+v", *again)
	}
	for name, back := range map[string]*op{
		"probe": again.probe.o, "data": again.data.o, "miss": again.miss.o, "done": again.done.o,
		"fill": again.fill.o, "chain": again.chain.o, "store": again.store.o, "unit": again.unit.o,
	} {
		if back != again {
			t.Fatalf("reused op's %s message does not point back at it", name)
		}
	}
	if st := p.stats(); st.Gets != 2 || st.Puts != 1 || st.Allocated != 1 || st.Live != 1 {
		t.Fatalf("pool stats %+v", st)
	}
}
