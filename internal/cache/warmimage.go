package cache

import (
	"sync"

	"nucanet/internal/bank"
	"nucanet/internal/config"
)

// WarmImage is the precomputed post-warm-up bank state of one design
// geometry: template banks warmed from a WarmBlocks table exactly as
// System.Warm would warm them. core builds the image once per (bank
// stack, warm table) and process, and every run clones it into its own
// banks: a clone reads each set through to the image until the run first
// writes that set (see bank.Bank), so warming costs neither the per-block
// insert replay nor a copy of the cache. The image is immutable after
// construction and safe to share read-only across goroutines; no clone
// ever writes through to it.
type WarmImage struct {
	banks [][]*bank.Bank // [column][position], never mutated after build

	ownersOnce sync.Once
	owners     [][]int64 // [column][owner] resident blocks; see liveOwners
}

// BuildWarmImage warms template banks for the design from a warm-state
// table as produced by (*trace.Synthetic).WarmBlocks. It replays the
// exact insertion loop of System.Warm, so WarmClone of the result is
// bit-identical to Warm of the table.
func BuildWarmImage(d config.Design, warm [][]uint64) *WarmImage {
	am := d.AddrMap()
	img := &WarmImage{banks: make([][]*bank.Bank, am.Columns)}
	for c := range img.banks {
		col := make([]*bank.Bank, len(d.Banks))
		for p, spec := range d.Banks {
			col[p] = bank.New(spec)
		}
		img.banks[c] = col
	}
	for set := 0; set < am.Sets; set++ {
		for c := 0; c < am.Columns; c++ {
			tags := warm[set*am.Columns+c]
			i := 0
			for p, bk := range img.banks[c] {
				ways := d.Banks[p].Ways
				for w := 0; w < ways && i < len(tags); w++ {
					bk.InsertLRU(set, bank.Block{Tag: tags[i]})
					i++
				}
			}
		}
	}
	return img
}

// WarmClone preloads every bank by cloning the image's template banks —
// equivalent to Warm on the table the image was built from, at the cost
// of clearing one byte per set. The image's geometry must match the
// system's.
func (s *System) WarmClone(img *WarmImage) {
	for c, col := range s.agents {
		for p, a := range col {
			a.bk.CloneState(img.banks[c][p])
		}
	}
	if s.Dir != nil {
		s.Dir.seedFrom(img.liveOwners())
	}
}

// liveOwners returns each column's resident blocks per owner — the
// directory policy's occupancy baseline after warm-up, a function of the
// image alone. The first directory run over the image counts them; every
// later one copies the counts instead of walking every set again.
func (img *WarmImage) liveOwners() [][]int64 {
	img.ownersOnce.Do(func() { img.owners = countOwners(img.banks) })
	return img.owners
}
