package flit

import "testing"

// testPayload is a stand-in protocol message for pool tests.
type testPayload struct{ tag string }

func (*testPayload) ProtocolMessage() {}

func TestPoolGetPutRecycles(t *testing.T) {
	p := &PacketPool{}
	a := p.Get()
	a.Kind, a.Addr, a.Payload = WriteData, 0x40, &testPayload{tag: "x"}
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatal("Get did not reuse the returned packet")
	}
	if b.Kind != ReadReq || b.Addr != 0 || b.Payload != nil {
		t.Fatalf("reused packet not zeroed: %+v", b)
	}
	if !b.pooled {
		t.Fatal("reused packet lost its pool mark")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Allocated != 1 || st.Live != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPoolDoublePutIgnored pins the exactly-once return property: a
// second Put of the same packet is a no-op, so a drain path calling Put
// unconditionally cannot corrupt the freelist with duplicates.
func TestPoolDoublePutIgnored(t *testing.T) {
	p := &PacketPool{}
	a := p.Get()
	p.Put(a)
	p.Put(a)
	if st := p.Stats(); st.Puts != 1 {
		t.Fatalf("double Put counted: %+v", st)
	}
	b, c := p.Get(), p.Get()
	if b == c {
		t.Fatal("freelist handed the same packet out twice")
	}
}

func TestPoolForeignAndNilPutIgnored(t *testing.T) {
	p := &PacketPool{}
	p.Put(&Packet{}) // never came from a pool
	p.Put(nil)
	if st := p.Stats(); st.Puts != 0 {
		t.Fatalf("foreign/nil Put counted: %+v", st)
	}
	if got := p.Get(); !got.pooled {
		t.Fatal("pool handed out an unmarked packet")
	}
}

// TestPoolLeakInvariant cycles many packets through the pool and checks
// the accounting identity Gets == Puts + Live, with Live == 0 after a
// full drain and allocations bounded by the peak working set.
func TestPoolLeakInvariant(t *testing.T) {
	p := &PacketPool{}
	const rounds, width = 50, 8
	live := make([]*Packet, 0, width)
	for r := 0; r < rounds; r++ {
		for i := 0; i < width; i++ {
			live = append(live, p.Get())
		}
		for _, pkt := range live {
			p.Put(pkt)
		}
		live = live[:0]
	}
	st := p.Stats()
	if st.Gets != rounds*width || st.Puts != st.Gets || st.Live != 0 {
		t.Fatalf("leak: %+v", st)
	}
	if st.Allocated > width {
		t.Fatalf("allocated %d fresh packets for a working set of %d", st.Allocated, width)
	}
}

func TestPoolPutDropsPayload(t *testing.T) {
	p := &PacketPool{}
	a := p.Get()
	a.Payload = &testPayload{tag: "held"}
	p.Put(a)
	if a.Payload != nil {
		t.Fatal("Put kept the payload reference alive")
	}
}
