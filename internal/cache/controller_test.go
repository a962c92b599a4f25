package cache

import (
	"fmt"
	"strings"
	"testing"

	"nucanet/internal/flit"
	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

// TestSameSetRequestsCompleteInOrder: requests to one set serialize
// (a replacement chain is stateful), so each one's data reaches the core
// after the previous request's.
func TestSameSetRequestsCompleteInOrder(t *testing.T) {
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 1)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))
	warm := gen.WarmBlocks(4)
	tags := warm[5*s.AM.Columns+2]
	reqs := make([]*Request, 4)
	for i := range reqs {
		reqs[i] = s.Issue(s.AM.Compose(tags[i], 5, 2), false, nil)
	}
	if err := s.Drain(1000000); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].DataAt <= reqs[i-1].DataAt {
			t.Fatalf("request %d's data at %d, not after request %d's at %d", i, reqs[i].DataAt, i-1, reqs[i-1].DataAt)
		}
	}
}

func TestPendingDrainsToZero(t *testing.T) {
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, LRU, Unicast)
	gen := trace.NewSynthetic(mustProfile(t, "vpr"), s.AM, 2)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))
	for _, a := range trace.Take(gen, 50) {
		s.Issue(a.Addr, a.Write, nil)
	}
	if s.Ctrl.Pending() == 0 {
		t.Fatal("requests should be pending before the kernel runs")
	}
	if err := s.Drain(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Ctrl.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}
}

func TestControllerAtCustomNode(t *testing.T) {
	// The CMP building block: a second controller at another router
	// owns its own column state and receives its own notifications.
	d := testDesign(4, 4)
	k := sim.NewKernel()
	s := MustNew(k, d, FastLRU, Multicast)
	gen := trace.NewSynthetic(mustProfile(t, "gcc"), s.AM, 3)
	s.Warm(gen.WarmBlocks(s.Design.Ways()))

	other := NewControllerAt(s, s.Topo.NodeAt(0, 0))
	s.Net.Attach(s.Topo.NodeAt(0, 0), flit.ToCore, other)
	warm := gen.WarmBlocks(1)
	r := &Request{Addr: s.AM.Compose(warm[3*s.AM.Columns+1][0], 3, 1)}
	other.Issue(r, 0)
	if other.Pending() != 1 || s.Ctrl.Pending() != 0 {
		t.Fatalf("custom controller must own the request: pending %d there, %d at the primary", other.Pending(), s.Ctrl.Pending())
	}
	if err := s.Drain(1000000); err != nil {
		t.Fatal(err)
	}
	if !r.Hit || r.DataAt == 0 {
		t.Fatalf("request via custom controller failed: %+v", r)
	}
}

// TestDrainCoversEveryController: a request left queued at a CMP home
// controller (one NewControllerAt built) while the kernel is idle fails
// the drain, as one at the primary controller does.
func TestDrainCoversEveryController(t *testing.T) {
	s := MustNew(sim.NewKernel(), testDesign(4, 4), FastLRU, Multicast)
	home := NewControllerAt(s, s.Topo.NodeAt(0, 0))
	home.cols[1].q = append(home.cols[1].q, &Request{})
	if err := s.Drain(1000); err == nil || !strings.Contains(err.Error(), "1 requests stuck") {
		t.Fatalf("drain with a request queued at a home controller: err %v, want a stuck-request error", err)
	}
}

// TestLateDoneOrDataPanics: the protocol sends no chain done and no
// second data delivery to an op that has finished (only a multicast
// hit's late miss reports, TestLateMissNotifyKeepsOpLive), so one that
// arrives panics, naming the op, its column and set, the cycle and the
// message. The slow far link keeps the finished op live for it.
func TestLateDoneOrDataPanics(t *testing.T) {
	for _, kind := range []flit.Kind{flit.CompleteNotify, flit.HitData} {
		t.Run(kind.String(), func(t *testing.T) {
			d := testDesign(4, 4)
			d.Params.VertDelay = []int{1, 1, 1, 40}
			k := sim.NewKernel()
			s := MustNew(k, d, FastLRU, Multicast)
			warm := warmMRU(t, s)
			const set, col = 0, 2
			s.Issue(s.AM.Compose(warm[set*s.AM.Columns+col][0], set, col), false, nil)
			o := s.Ctrl.cols[col].active[0]
			for !o.finished {
				if !k.Step() {
					t.Fatal("kernel went idle before the op finished")
				}
			}
			pkt := &flit.Packet{Kind: kind, Payload: &o.done}
			if kind == flit.HitData {
				pkt.Payload = &o.data
			}
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("cache: op %d (column %d, set %d) ", o.id, col, set)
				if !strings.HasPrefix(msg, want) || !strings.Contains(msg, fmt.Sprintf("cycle %d got", k.Now())) ||
					!strings.Contains(msg, kind.String()) {
					t.Fatalf("late %v: panic %q, want one naming the op (%q), the cycle and the message", kind, msg, want)
				}
			}()
			s.Ctrl.Deliver(pkt, k.Now())
		})
	}
}
