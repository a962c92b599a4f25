package cache

import (
	"nucanet/internal/bank"
	"nucanet/internal/config"
)

// WarmImage is the precomputed post-warm-up bank state of one design
// geometry: template banks warmed from a WarmBlocks table exactly as
// System.Warm would warm them. Batch evaluation (core.Engine.RunAll) builds
// the image once per (bank stack, warm table) and clones it into every
// lane's banks, replacing the per-block insert replay — the dominant
// per-lane construction cost for short screening runs — with one slab
// copy per bank. The image is immutable after construction and safe to
// share read-only across goroutines.
type WarmImage struct {
	banks [][]*bank.Bank // [column][position], never mutated after build
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
// equivalent to Warm on the table the image was built from, at memcpy
// cost. The image's geometry must match the system's.
func (s *System) WarmClone(img *WarmImage) {
	for c, col := range s.agents {
		for p, a := range col {
			a.bk.CloneState(img.banks[c][p])
		}
	}
	if s.Dir != nil {
		s.Dir.seed(s)
	}
}
