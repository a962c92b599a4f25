package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParMapOrderIndependentOfCompletion(t *testing.T) {
	// A barrier forces all workers to finish out of submission order if
	// placement depended on completion; index placement must still win.
	const n = 64
	out, err := ParMap(8, n, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len = %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParMapSequentialMatchesParallel(t *testing.T) {
	fn := func(i int) (int, error) { return 31*i + 7, nil }
	seq, err := ParMap(1, 100, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParMap(8, 100, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

func TestParMapFirstErrorByIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 8} {
		out, err := ParMap(workers, 32, func(i int) (int, error) {
			switch i {
			case 5:
				return 0, errLow
			case 20:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
		if out != nil {
			t.Errorf("workers=%d: out = %v, want nil on error", workers, out)
		}
	}
}

func TestParMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := ParMap(workers, 50, func(i int) (int, error) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, want <= %d", p, workers)
	}
}

func TestParMapZeroAndEmpty(t *testing.T) {
	out, err := ParMap(0, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}
