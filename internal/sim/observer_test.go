package sim

import "testing"

// burst is a component that stays active for a fixed number of cycles.
type burst struct{ left int }

func (b *burst) Tick(now int64) bool {
	b.left--
	return b.left > 0
}

func TestObserverSamplesAndParks(t *testing.T) {
	k := NewKernel()
	b := &burst{left: 100}
	id := k.Register(b)
	k.Activate(id)

	var at []int64
	Observe(k, 10, func(now int64) { at = append(at, now) })

	cycles, idle := k.Run(1 << 20)
	if !idle {
		t.Fatalf("kernel did not go idle (ran %d cycles): observer must park", cycles)
	}
	// The burst runs cycles 1..100; samples land on 10, 20, ..., and one
	// final sample after the burst drains (at which point the observer
	// parks instead of re-arming).
	if len(at) < 10 || len(at) > 11 {
		t.Fatalf("sampled %d times at %v, want 10-11 samples", len(at), at)
	}
	for i, c := range at {
		if want := int64(10 * (i + 1)); c != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, c, want)
		}
	}
}

func TestObserverDoesNotBlockIdleKernel(t *testing.T) {
	k := NewKernel()
	fired := 0
	Observe(k, 5, func(int64) { fired++ })
	// Nothing else registered: the observer's first tick finds the
	// kernel otherwise idle and parks immediately.
	if cycles, idle := k.Run(1 << 20); !idle || cycles != 5 {
		t.Fatalf("run = (%d, %v), want idle after the single cycle-5 sample", cycles, idle)
	}
	if fired != 1 {
		t.Fatalf("observer fired %d times, want 1", fired)
	}
}

func TestObserverBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Observe(k, 0, ...) must panic")
		}
	}()
	Observe(NewKernel(), 0, func(int64) {})
}
