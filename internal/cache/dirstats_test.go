package cache

import (
	"reflect"
	"sort"
	"testing"

	"nucanet/internal/sim"
)

// ownerPair attributes one capacity eviction: victim's block was pushed
// out of the cache by evictor's access.
type ownerPair struct{ victim, evictor uint64 }

// mapDir is the map-per-column directory with its victim x evictor
// matrix that the per-owner DirStats replaced, kept as the reference its
// Report must reproduce exactly.
type mapDir struct {
	live, fills, hits, drops []map[uint64]int64
	cross                    []map[ownerPair]int64
}

func newMapDir(cols int) *mapDir {
	m := &mapDir{}
	for c := 0; c < cols; c++ {
		m.live = append(m.live, map[uint64]int64{})
		m.fills = append(m.fills, map[uint64]int64{})
		m.hits = append(m.hits, map[uint64]int64{})
		m.drops = append(m.drops, map[uint64]int64{})
		m.cross = append(m.cross, map[ownerPair]int64{})
	}
	return m
}

// report merges the columns into rows: an owner is listed when any
// column's map holds it, and the drop totals split the matrix's diagonal
// from its off-diagonal mass.
func (m *mapDir) report() DirReport {
	rows := map[uint64]*DirOwner{}
	merge := func(src []map[uint64]int64, field func(*DirOwner) *int64) {
		for _, col := range src {
			for o, n := range col {
				if rows[o] == nil {
					rows[o] = &DirOwner{Owner: o}
				}
				*field(rows[o]) += n
			}
		}
	}
	merge(m.live, func(r *DirOwner) *int64 { return &r.Live })
	merge(m.fills, func(r *DirOwner) *int64 { return &r.Fills })
	merge(m.hits, func(r *DirOwner) *int64 { return &r.Hits })
	merge(m.drops, func(r *DirOwner) *int64 { return &r.Drops })
	r := DirReport{Owners: []DirOwner{}}
	for _, col := range m.cross {
		for p, n := range col {
			if p.victim == p.evictor {
				r.SelfDrops += n
			} else {
				r.CrossDrops += n
			}
		}
	}
	for _, row := range rows {
		r.Owners = append(r.Owners, *row)
	}
	sort.Slice(r.Owners, func(i, j int) bool { return r.Owners[i].Owner < r.Owners[j].Owner })
	return r
}

// TestDirStatsReportMatchesMaps drives the per-owner counters and the
// map reference through one random stream of seeds, fills, hits and
// drops over three columns — owners beyond the seeded ones included, so
// the rows grow mid-run — and requires identical reports, down to an
// owner whose occupancy fell back to zero staying listed. The directory
// is renewed in place after a wider run of its own, so a count reset
// leaves behind shows too.
func TestDirStatsReportMatchesMaps(t *testing.T) {
	const cols = 3
	var d DirStats
	d.reset()
	d.setBaseline([]int64{4, 5, 1, 2})
	d.fill(11 * OwnerStride)
	d.dropped(OwnerStride, 3*OwnerStride)
	d.reset()
	m := newMapDir(cols)
	seed := [][]int64{{4, 1}, {0, 3}, {2, 0}}
	total := make([]int64, 2)
	for c, row := range seed {
		for o, n := range row {
			total[o] += n
			if n != 0 {
				m.live[c][uint64(o)] = n
			}
		}
	}
	d.setBaseline(total)
	tag := func(owner uint64) uint64 { return owner*OwnerStride + 7 }
	fill := func(c int, o uint64) {
		d.fill(tag(o))
		m.fills[c][o]++
		m.live[c][o]++
	}
	drop := func(c int, o, by uint64) {
		d.dropped(tag(o), tag(by))
		m.drops[c][o]++
		m.live[c][o]--
		m.cross[c][ownerPair{victim: o, evictor: by}]++
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
				d.hit(tag(o))
				m.hits[c][o]++
			}
		case 2:
			if m.live[c][o] > 0 {
				drop(c, o, uint64(rng.Intn(6)))
			}
		}
	}
	// Owner 9 arrives last, growing rows that already hold the stream's
	// counts, then leaves column 0: its row must stay listed, at Live 0.
	fill(0, 9)
	drop(0, 9, 1)

	got, want := d.Report(), m.report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-owner report differs from the map reference:\n got %+v\nwant %+v", got, want)
	}
	if last := got.Owners[len(got.Owners)-1]; last != (DirOwner{Owner: 9, Fills: 1, Drops: 1}) {
		t.Fatalf("owner 9 listed as %+v, want one fill, one drop and Live 0", last)
	}
}

// TestDirReportAllocatesOneObject: a report over eight owners that were
// seeded, filled, hit and dropped is one allocation, its rows.
func TestDirReportAllocatesOneObject(t *testing.T) {
	var d DirStats
	d.setBaseline([]int64{3, 3, 3, 3, 3, 3, 3, 3})
	for o := uint64(0); o < 8; o++ {
		d.fill(o * OwnerStride)
		d.hit(o * OwnerStride)
		d.dropped(o*OwnerStride, (7-o)*OwnerStride)
	}
	if n := testing.AllocsPerRun(100, func() { d.Report() }); n != 1 {
		t.Fatalf("Report allocates %v objects, want 1", n)
	}
	if rep := d.Report(); len(rep.Owners) != 8 || rep.SelfDrops != 0 || rep.CrossDrops != 8 {
		t.Fatalf("report %+v, want 8 owners and 8 cross drops", rep)
	}
}
