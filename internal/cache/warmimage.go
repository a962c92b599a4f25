package cache

import (
	"sync"

	"nucanet/internal/bank"
	"nucanet/internal/config"
)

// WarmImage is the post-warm-up bank state of one design geometry:
// template banks holding a WarmBlocks table. core builds the image once
// per (bank stack, warm table) and process, System.Warm once per call,
// and every system warms by cloning it into its own banks: a clone reads
// each set through to the image until the run first writes that set
// (see bank.Bank), so warming costs neither a per-block insert nor a
// copy of the cache. The image is immutable after construction and safe
// to share read-only across goroutines; no clone ever writes through to
// it.
type WarmImage struct {
	banks [][]bank.Bank // [column][position], never mutated after build

	ownersOnce sync.Once
	owners     []int64 // [owner] resident blocks; see liveOwners
}

// BuildWarmImage warms template banks for the design, carved from one
// arena of the image's own, from a warm-state table as produced by
// (*trace.Synthetic).WarmBlocks: warm[set*Columns+col] lists tags in
// MRU-to-LRU order, and they fill the column's banks nearest first, each
// bank up to its ways — the order Golden.Warm fills the same table.
func BuildWarmImage(d config.Design, warm [][]uint64) *WarmImage {
	am := d.AddrMap()
	var ar bank.Arena
	img := &WarmImage{banks: make([][]bank.Bank, am.Columns)}
	for c := range img.banks {
		col := make([]bank.Bank, len(d.Banks))
		for p, spec := range d.Banks {
			col[p] = bank.NewIn(spec, &ar)
		}
		img.banks[c] = col
	}
	for set := 0; set < am.Sets; set++ {
		for c, col := range img.banks {
			tags := warm[set*am.Columns+c]
			i := 0
			for p := range col {
				for w := 0; w < d.Banks[p].Ways && i < len(tags); w++ {
					col[p].InsertLRU(set, bank.Block{Tag: tags[i]})
					i++
				}
			}
		}
	}
	return img
}

// WarmClone preloads every bank by cloning the image's template banks,
// at the cost of clearing one byte per set. The image's geometry must
// match the system's.
func (s *System) WarmClone(img *WarmImage) {
	for c, col := range img.banks {
		for p := range col {
			s.agent(c, p).bk.CloneState(&col[p])
		}
	}
	if s.Dir != nil {
		s.Dir.setBaseline(img.liveOwners())
	}
}

// liveOwners returns the image's resident blocks per owner — the
// directory policy's occupancy baseline after warm-up, a function of the
// image alone. The first directory run over the image counts them; every
// later one copies the counts instead of walking every set again.
func (img *WarmImage) liveOwners() []int64 {
	img.ownersOnce.Do(func() {
		for _, col := range img.banks {
			for p := range col {
				img.owners = countOwners(img.owners, &col[p])
			}
		}
	})
	return img.owners
}
