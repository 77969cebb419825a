package ftl

import (
	"errors"
	"fmt"

	"morpheus/internal/flash"
	"morpheus/internal/units"
)

// ErrMediaError wraps an uncorrectable flash read: the logical page's data
// is lost.
var ErrMediaError = errors.New("ftl: unrecoverable media error")

// BadBlocks reports how many blocks have been retired.
func (f *FTL) BadBlocks() int { return len(f.badBlocks) }

// LostPages reports how many logical pages were lost to media errors.
func (f *FTL) LostPages() int64 { return f.lostPages }

// IsBad reports whether a block has been retired.
func (f *FTL) IsBad(blk flash.BlockAddr) bool { return f.badBlocks[blk] }

// RetireBlock implements grown-bad-block handling: the firmware calls it
// after an uncorrectable read. Still-readable valid pages are relocated
// through the normal write path; unreadable ones are unmapped (their data
// is lost — the error has already been reported to the host). The block
// never returns to the free pool.
func (f *FTL) RetireBlock(ready units.Time, blk flash.BlockAddr) (units.Time, error) {
	if f.badBlocks[blk] {
		return ready, nil
	}
	pl := f.planeOf(blk)
	bs, tracked := pl.blocks[blk]
	if !tracked {
		// A free (or unknown) block: just make sure it is never handed out.
		for i, b := range pl.free {
			if int(b) == blk.Block {
				pl.free = append(pl.free[:i], pl.free[i+1:]...)
				break
			}
		}
		f.badBlocks[blk] = true
		return ready, nil
	}
	if bs == pl.active {
		pl.active = nil
	}
	// Detach the block first so relocation writes cannot target it.
	delete(pl.blocks, blk)
	f.badBlocks[blk] = true
	t := ready
	for page, lba := range bs.lbas {
		if lba < 0 {
			continue
		}
		data, rt, err := f.array.Read(t, blk.WithPage(page))
		if err != nil {
			// Unreadable: the logical page is gone.
			delete(f.mapTable, lba)
			f.lostPages++
			continue
		}
		wt, err := f.Write(rt, lba, data)
		if err != nil {
			return t, fmt.Errorf("ftl: relocating lba %d off bad block %v: %w", lba, blk, err)
		}
		t = wt
	}
	return t, nil
}
