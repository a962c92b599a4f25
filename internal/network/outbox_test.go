package network

import (
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/topology"
)

// TestOutboxSendsDueEntriesInOrder queues four packets at cycles 5, 5, 9
// and 9 into a two-entry outbox, the first two from cycle 0 and the
// last two after the first pair has left, so the queue refills its own
// storage. Each is injected at its own cycle, in queue order, with the
// outbox's storage reused rather than regrown.
func TestOutboxSendsDueEntriesInOrder(t *testing.T) {
	r := newRig(topology.MustBuild("mesh", topology.Params{W: 2, H: 1, CoreX: 0, MemX: 1}))
	buf := make([]Timed, 2)
	var o Outbox
	o.Register(r.net, buf)
	pkts := make([]*flit.Packet, 4)
	for i := range pkts {
		pkts[i] = ownPacket(flit.ReadReq, 0, 1, flit.ToBank, uint64(i))
	}
	o.At(5, pkts[0])
	o.At(5, pkts[1])
	r.k.Run(6)
	o.At(9, pkts[2])
	o.At(9, pkts[3])
	r.run(t, 100)
	for i, p := range pkts {
		if want := int64(5 + 4*(i/2)); p.Injected != want {
			t.Errorf("packet %d injected at %d, want %d", i, p.Injected, want)
		}
		if got := r.banks[1].got[i].pkt.Addr; got != uint64(i) {
			t.Errorf("delivery %d carries packet %d, want queue order", i, got)
		}
	}
	if len(o.q) != 0 || &o.q[:1][0] != &buf[0] {
		t.Errorf("outbox holds %d entries in new storage; want it empty in its first buffer", len(o.q))
	}
}
