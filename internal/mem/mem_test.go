package mem

import (
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// sink records what it was delivered. It copies each packet: the router
// recycles pkt once Deliver returns (see network.Endpoint).
type sink struct {
	got []flit.Packet
	at  []int64
}

// cookie is a test protocol payload passed through the memory.
type cookie struct{ id string }

func (*cookie) ProtocolMessage() {}

func (s *sink) Deliver(p *flit.Packet, now int64) {
	s.got = append(s.got, *p)
	s.at = append(s.at, now)
}

func build(t *testing.T, wire int) (*sim.Kernel, *network.Network, *Memory, *sink) {
	t.Helper()
	topo := topology.NewMesh(topology.MeshSpec{W: 4, H: 4, CoreX: 1, MemX: 2})
	topo.MemWireDelay = wire
	k := sim.NewKernel()
	net := network.MustNew(k, topo, routing.XY{}, router.DefaultConfig())
	m := New(k, net, DefaultConfig())
	s := &sink{}
	for id := 0; id < topo.NumNodes(); id++ {
		net.Attach(id, flit.ToBank, s)
	}
	net.Attach(topo.Core, flit.ToCore, s)
	return k, net, m, s
}

func TestConfigDerived(t *testing.T) {
	c := DefaultConfig()
	if c.TransferCycles() != 32 {
		t.Fatalf("TransferCycles = %d, want 32 (4 cycles per 8B x 64B)", c.TransferCycles())
	}
	if c.ReadLatency() != 162 {
		t.Fatalf("ReadLatency = %d, want 162", c.ReadLatency())
	}
}

func TestReadRoundTrip(t *testing.T) {
	k, net, m, s := build(t, 0)
	mru := net.Topo.NodeAt(2, 0)
	req := &flit.Packet{
		Kind: flit.MemReadReq, Src: net.Topo.Core, Dst: m.Node(), DstEp: flit.ToMem,
		Addr: 0x1000, Payload: &ReadReq{ReplyTo: mru, ReplyEp: flit.ToBank, Cookie: &cookie{"c1"}},
	}
	net.Send(req, 0)
	k.Run(10000)
	if len(s.got) != 1 {
		t.Fatalf("replies = %d, want 1", len(s.got))
	}
	rep := &s.got[0]
	if c, ok := rep.Payload.(*cookie); rep.Kind != flit.MemBlock || rep.Addr != 0x1000 || !ok || c.id != "c1" {
		t.Fatalf("bad reply %v payload=%v", rep, rep.Payload)
	}
	// Request: (1,0)->(2,3) = 4 hops + eject = 5. Reply ready at
	// 5+162=167; reply head travels (2,3)->(2,0) = 3 hops + eject
	// => 167+3+1 = 171 (cut-through delivery at the head flit).
	if s.at[0] != 171 {
		t.Fatalf("reply delivered at %d, want 171", s.at[0])
	}
	if m.Stats().Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestWireDelayAddsBothWays(t *testing.T) {
	_, _, _, _ = build(t, 0)
	k, net, m, s := build(t, 9)
	mru := net.Topo.NodeAt(2, 0)
	req := &flit.Packet{
		Kind: flit.MemReadReq, Src: net.Topo.Core, Dst: m.Node(), DstEp: flit.ToMem,
		Addr: 0x40, Payload: &ReadReq{ReplyTo: mru, ReplyEp: flit.ToBank},
	}
	net.Send(req, 0)
	k.Run(10000)
	if s.at[0] != 171+18 {
		t.Fatalf("reply at %d, want %d (2x9 wire cycles added)", s.at[0], 171+18)
	}
}

func TestPipelinedPortSerializes(t *testing.T) {
	k, net, m, s := build(t, 0)
	mru := net.Topo.NodeAt(2, 0)
	for i := 0; i < 3; i++ {
		req := &flit.Packet{
			Kind: flit.MemReadReq, Src: net.Topo.Core, Dst: m.Node(), DstEp: flit.ToMem,
			Addr: uint64(i) * 64, Payload: &ReadReq{ReplyTo: mru, ReplyEp: flit.ToBank},
		}
		net.Send(req, 0)
	}
	k.Run(100000)
	if len(s.got) != 3 {
		t.Fatalf("replies = %d, want 3", len(s.got))
	}
	// Port initiation interval is the 32-cycle transfer: replies must be
	// spaced at least ~32 cycles apart (pipelined, not fully parallel).
	if s.at[1] < s.at[0]+30 || s.at[2] < s.at[1]+30 {
		t.Fatalf("reply times %v not pipelined at the port", s.at)
	}
	if m.Stats().BusyStall == 0 {
		t.Fatal("expected port busy stalls")
	}
}

func TestWriteBackAbsorbed(t *testing.T) {
	k, net, m, s := build(t, 0)
	wb := &flit.Packet{
		Kind: flit.WriteBack, Src: net.Topo.NodeAt(2, 3), Dst: m.Node(),
		DstEp: flit.ToMem, Addr: 0xbeef,
	}
	net.Send(wb, 0)
	k.Run(10000)
	if len(s.got) != 0 {
		t.Fatal("writeback must not generate a reply")
	}
	if m.Stats().WriteBacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestHaloWireDelayPickedUpFromTopology(t *testing.T) {
	topo := topology.NewHalo(topology.HaloSpec{Spikes: 4, Length: 4, MemWireDelay: 16})
	k := sim.NewKernel()
	net := network.MustNew(k, topo, routing.Spike{}, router.DefaultConfig())
	m := New(k, net, DefaultConfig())
	s := &sink{}
	for id := 0; id < topo.NumNodes(); id++ {
		net.Attach(id, flit.ToBank, s)
	}
	mru := topo.Column(0)[0]
	req := &flit.Packet{
		Kind: flit.MemReadReq, Src: topo.Hub(), Dst: m.Node(), DstEp: flit.ToMem,
		Addr: 0, Payload: &ReadReq{ReplyTo: mru, ReplyEp: flit.ToBank},
	}
	net.Send(req, 0)
	k.Run(10000)
	// Hub == mem node: request ejects at cycle 1; +16 wire, +162, +16
	// wire = ready 195; reply head 1 hop + eject = 195+2 = 197.
	if s.at[0] != 197 {
		t.Fatalf("reply at %d, want 197", s.at[0])
	}
}

func TestBadPayloadPanics(t *testing.T) {
	k, net, m, _ := build(t, 0)
	req := &flit.Packet{
		Kind: flit.MemReadReq, Src: net.Topo.Core, Dst: m.Node(), DstEp: flit.ToMem,
	}
	net.Send(req, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing payload")
		}
	}()
	k.Run(10000)
}
