package cache

import (
	"fmt"

	"nucanet/internal/bank"
)

// OwnerStride separates per-owner tag spaces: owner i's blocks carry
// tags in [i*OwnerStride, (i+1)*OwnerStride). The CMP fabric relocates
// each core's trace into its own range with this stride, so a block's
// owner is recoverable from its tag alone — the property the directory
// policy's bookkeeping relies on.
const OwnerStride = uint64(1) << 32

// OwnerOf recovers the owning requester from a block tag.
func OwnerOf(tag uint64) uint64 { return tag / OwnerStride }

// DirStats is the directory policy's ownership record. The policy runs
// Fast-LRU's exact protocol and golden model (its row of the policies
// table is Fast-LRU's engine); the protocol shell attributes every hit
// (recordHit), fill (the fill dispatch) and capacity eviction
// (victimLeaves) to the owning core, turning "whose working set
// displaced whose" from a guess into a measured split.
//
// Owners index the rows densely: a CMP run has one owner per core, so
// every count is a field of a slice entry, not a map slot. The rows grow
// the first time a new owner's tag shows up.
type DirStats struct {
	rows                  []DirOwner // rows[o].Owner == o
	selfDrops, crossDrops int64
}

// DirOwner is one owner's row of the directory.
type DirOwner struct {
	Owner uint64
	Live  int64 // blocks currently resident
	Fills int64 // miss fills
	Hits  int64 // tag-match hits
	Drops int64 // blocks evicted out of the cache
}

// DirReport is the directory's view of a run.
type DirReport struct {
	Owners []DirOwner // ascending; see Report for which owners are listed

	// SelfDrops and CrossDrops split the evictions by whether the access
	// that pushed a block out was its own owner's or another core's — the
	// sharing-interference headline number.
	SelfDrops  int64
	CrossDrops int64
}

// reset empties the directory, keeping its storage.
func (d *DirStats) reset() { *d = DirStats{rows: d.rows[:0]} }

// grow extends the rows to cover owner o.
func (d *DirStats) grow(o uint64) {
	for uint64(len(d.rows)) <= o {
		d.rows = append(d.rows, DirOwner{Owner: uint64(len(d.rows))})
	}
}

// row returns the row of tag's owner, growing the rows if needed.
func (d *DirStats) row(tag uint64) *DirOwner {
	o := OwnerOf(tag)
	d.grow(o)
	return &d.rows[o]
}

// setBaseline restarts the directory at precounted per-owner occupancies
// (WarmImage.owners), as warming replaces every bank's contents:
// live[o] is owner o's resident blocks. Every other count starts at zero.
func (d *DirStats) setBaseline(live []int64) {
	d.reset()
	for o, n := range live {
		d.grow(uint64(o))
		d.rows[o].Live = n
	}
}

// countOwners adds the blocks resident in bk's sets [0, sets) to the
// per-owner counts, growing them to the highest owner seen, and returns
// them.
func countOwners(counts []int64, bk *bank.Bank, sets int) []int64 {
	for set := 0; set < sets; set++ {
		bk.EachBlock(set, func(blk bank.Block) {
			o := int(OwnerOf(blk.Tag))
			if o >= len(counts) {
				counts = append(counts, make([]int64, o+1-len(counts))...)
			}
			counts[o]++
		})
	}
	return counts
}

// hit records a tag-match hit on tag's block.
func (d *DirStats) hit(tag uint64) { d.row(tag).Hits++ }

// fill records tag's block entering the cache — the only path a new
// block enters on — and raises its owner's occupancy.
func (d *DirStats) fill(tag uint64) {
	r := d.row(tag)
	r.Fills++
	r.Live++
}

// dropped records a victim leaving the cache, attributed to the access
// that pushed it out.
func (d *DirStats) dropped(victimTag, byTag uint64) {
	r := d.row(victimTag)
	r.Drops++
	r.Live--
	if r.Owner == OwnerOf(byTag) {
		d.selfDrops++
	} else {
		d.crossDrops++
	}
}

// Report lists every owner with a non-zero count. That is every owner
// resident at warm-up or filled since, even once its occupancy has
// fallen back to zero: a block leaves only through a drop, so such an
// owner keeps a non-zero Drops.
func (d *DirStats) Report() DirReport {
	rep := DirReport{Owners: make([]DirOwner, 0, len(d.rows)), SelfDrops: d.selfDrops, CrossDrops: d.crossDrops}
	for _, r := range d.rows {
		if r != (DirOwner{Owner: r.Owner}) {
			rep.Owners = append(rep.Owners, r)
		}
	}
	return rep
}

// Verify reconciles the directory against the ground truth: every
// owner's live count must equal the blocks of that owner actually
// resident in the banks. It returns the discrepancies found (nil when
// the directory is exact) — the protocol-invariant check the
// multi-requester conformance harness enforces. A system warmed from an
// image is walked over the image's sets, which are all a run can reach,
// and the sets past them add the image's closed-form count.
func (d *DirStats) Verify(s *System) []string {
	sets, rest := s.AM.Sets, []int64(nil)
	if s.warm != nil {
		sets, rest = s.warm.sets, s.warm.rest
	}
	actual := make([]int64, max(len(d.rows), len(rest)))
	copy(actual, rest)
	for i := range s.agents {
		actual = countOwners(actual, &s.agents[i].bk, sets)
	}
	var violations []string
	for o, held := range actual {
		var live int64
		if o < len(d.rows) {
			live = d.rows[o].Live
		}
		if live != held {
			violations = append(violations,
				fmt.Sprintf("directory: owner %d live count %d, but %d blocks resident", o, live, held))
		}
	}
	return violations
}
