package cache

import (
	"reflect"
	"sort"
	"testing"

	"nucanet/internal/sim"
)

// mapDir is the map-per-column directory the dense DirStats replaced,
// kept as the reference its Report must reproduce exactly.
type mapDir struct {
	live, fills, hits, drops []map[uint64]int64
	cross                    []map[OwnerPair]int64
}

func newMapDir(cols int) *mapDir {
	m := &mapDir{}
	for c := 0; c < cols; c++ {
		m.live = append(m.live, map[uint64]int64{})
		m.fills = append(m.fills, map[uint64]int64{})
		m.hits = append(m.hits, map[uint64]int64{})
		m.drops = append(m.drops, map[uint64]int64{})
		m.cross = append(m.cross, map[OwnerPair]int64{})
	}
	return m
}

func (m *mapDir) report() DirReport {
	r := DirReport{Live: map[uint64]int64{}, Fills: map[uint64]int64{}, Hits: map[uint64]int64{},
		Drops: map[uint64]int64{}, Cross: map[OwnerPair]int64{}}
	owners := map[uint64]bool{}
	merge := func(dst map[uint64]int64, src []map[uint64]int64) {
		for _, col := range src {
			for o, n := range col {
				dst[o] += n
				owners[o] = true
			}
		}
	}
	merge(r.Live, m.live)
	merge(r.Fills, m.fills)
	merge(r.Hits, m.hits)
	merge(r.Drops, m.drops)
	for _, col := range m.cross {
		for p, n := range col {
			r.Cross[p] += n
			if p.Victim == p.Evictor {
				r.SelfDrops += n
			} else {
				r.CrossDrops += n
			}
		}
	}
	for o := range owners {
		r.Owners = append(r.Owners, o)
	}
	sort.Slice(r.Owners, func(i, j int) bool { return r.Owners[i] < r.Owners[j] })
	return r
}

// TestDirStatsReportMatchesMaps drives the dense counters and the map
// reference through one random stream of seeds, fills, hits and drops —
// owners beyond the seeded ones included, so the counters grow mid-run —
// and requires identical reports, down to an owner whose occupancy fell
// back to zero staying listed under Live. The directory is renewed in
// place after a wider run of its own, so a count reset leaves behind
// shows too.
func TestDirStatsReportMatchesMaps(t *testing.T) {
	const cols = 3
	var d DirStats
	d.reset(cols + 2)
	d.setBaseline([][]int64{{1, 0, 0, 2}, {0, 5, 0, 0}, {0, 0, 0, 0}, {3, 0, 0, 0}, {0, 0, 1, 0}})
	d.fill(4, 11*OwnerStride)
	d.dropped(1, OwnerStride, 3*OwnerStride)
	d.reset(cols)
	m := newMapDir(cols)
	seed := [][]int64{{4, 1}, {0, 3}, {2, 0}}
	d.setBaseline(seed)
	for c, row := range seed {
		for o, n := range row {
			if n != 0 {
				m.live[c][uint64(o)] = n
			}
		}
	}
	tag := func(owner uint64) uint64 { return owner*OwnerStride + 7 }
	fill := func(c int, o uint64) {
		d.fill(c, tag(o))
		m.fills[c][o]++
		m.live[c][o]++
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 2000; i++ {
		c := rng.Intn(cols)
		o := uint64(rng.Intn(6))
		switch rng.Intn(3) {
		case 0:
			fill(c, o)
		case 1:
			if m.live[c][o] > 0 {
				d.hit(c, tag(o))
				m.hits[c][o]++
			}
		case 2:
			if m.live[c][o] > 0 {
				by := uint64(rng.Intn(6))
				d.dropped(c, tag(o), tag(by))
				m.drops[c][o]++
				m.live[c][o]--
				m.cross[c][OwnerPair{Victim: o, Evictor: by}]++
			}
		}
	}
	// Owner 9 arrives last, growing counters that already hold the
	// stream's counts, then leaves column 0: its Live entry must stay,
	// at 0.
	fill(0, 9)
	d.dropped(0, tag(9), tag(1))
	m.drops[0][9]++
	m.live[0][9]--
	m.cross[0][OwnerPair{Victim: 9, Evictor: 1}]++

	got, want := d.Report(), m.report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dense report differs from the map reference:\n got %+v\nwant %+v", got, want)
	}
	if n, ok := got.Live[9]; !ok || n != 0 {
		t.Fatalf("owner 9 listed as Live[9] = %d (present %v), want a zero entry", n, ok)
	}
}
