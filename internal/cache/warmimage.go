package cache

import (
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
//
// The image holds the sets the table lists, a prefix of the design's:
// WarmBlocks lists only the sets a stream can reach, and a clone that
// reads past them panics. The sets left out still count towards the
// directory's occupancy baseline, each as a prefill row with the owner
// split of the table's row 0 (see rest).
type WarmImage struct {
	banks [][]bank.Bank // [column][position], never mutated after build
	sets  int           // sets per bank the image holds

	owners []int64 // [owner] resident blocks, every set of the design
	rest   []int64 // [owner] the part of owners in the sets past the image
}

// BuildWarmImage warms template banks for the design, carved from one
// arena of the image's own, from a warm-state table as produced by
// (*trace.Synthetic).WarmBlocks: warm[set*Columns+col] lists tags in
// MRU-to-LRU order, and they fill the column's banks nearest first, each
// bank up to its ways — the order Golden.Warm fills the same table. The
// table lists sets [0, len(warm)/Columns): the image holds those, and a
// full-length table warms every set.
func BuildWarmImage(d config.Design, warm [][]uint64) *WarmImage {
	am := d.AddrMap()
	sets := len(warm) / am.Columns
	var ar bank.Arena
	img := &WarmImage{banks: make([][]bank.Bank, am.Columns), sets: sets}
	for c := range img.banks {
		col := make([]bank.Bank, len(d.Banks))
		for p, spec := range d.Banks {
			col[p] = bank.NewIn(spec, sets, &ar)
		}
		img.banks[c] = col
	}
	for set := 0; set < sets; set++ {
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
	if left := int64(am.Columns * (am.Sets - sets)); left > 0 && sets > 0 {
		for p := range img.banks[0] {
			img.rest = countOwners(img.rest, &img.banks[0][p], 1)
		}
		for o := range img.rest {
			img.rest[o] *= left
		}
	}
	img.owners = append([]int64(nil), img.rest...)
	for _, col := range img.banks {
		for p := range col {
			img.owners = countOwners(img.owners, &col[p], sets)
		}
	}
	return img
}

// WarmClone preloads every bank by cloning the image's template banks,
// at the cost of clearing one byte per set, and under the directory
// policy copies the image's per-owner occupancy as its baseline. The
// image's geometry must match the system's.
func (s *System) WarmClone(img *WarmImage) {
	for c, col := range img.banks {
		for p := range col {
			s.agent(c, p).bk.CloneState(&col[p])
		}
	}
	s.warm = img
	if s.Dir != nil {
		s.Dir.setBaseline(img.owners)
	}
}
