// Package ftl implements a page-level flash translation layer: the mapping
// from logical block addresses to physical NAND pages, write allocation
// striped across channels for parallelism, and greedy garbage collection.
//
// The Morpheus paper deliberately leaves the FTL of the baseline SSD
// untouched (§IV-B: "Morpheus-SSD performs no changes to the FTL"); the
// tests in this package and in internal/ssd assert that invariant by
// checking that MREAD-driven access leaves FTL state identical to
// conventional reads.
package ftl

import (
	"errors"
	"fmt"

	"morpheus/internal/flash"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// LBA is a logical block (page-granularity) address.
type LBA int64

// ErrUnmapped is returned when reading an LBA that was never written.
var ErrUnmapped = errors.New("ftl: unmapped LBA")

// Config tunes the FTL.
type Config struct {
	// OverprovisionPct is the fraction of physical blocks reserved for GC
	// headroom, in percent of total blocks.
	OverprovisionPct int
	// GCThresholdBlocks triggers garbage collection when the free-block
	// count per plane drops to this value.
	GCThresholdBlocks int
}

// DefaultConfig matches a typical 7% overprovisioned client SSD.
func DefaultConfig() Config {
	return Config{OverprovisionPct: 7, GCThresholdBlocks: 2}
}

type blockState struct {
	addr     flash.BlockAddr
	nextPage int   // next free page index; PagesPerBlock means full
	valid    int   // count of valid pages
	lbas     []LBA // lba per page, -1 = invalid/unused
}

type plane struct {
	free   []*flash.BlockAddr
	active *blockState
	blocks map[flash.BlockAddr]*blockState // full or active blocks
}

// FTL maps LBAs onto a flash.Array.
type FTL struct {
	array *flash.Array
	cfg   Config

	mapTable map[LBA]flash.PPA
	planes   []*plane // index: ((ch*dies)+die)*planesPerDie + plane
	nextPl   int      // round-robin write-allocation cursor

	badBlocks map[flash.BlockAddr]bool
	lostPages int64

	userPages int64 // exported logical capacity in pages
	gcRuns    int64
	gcMoved   int64

	tracer *trace.Tracer
	span   trace.SpanID
}

// Trace names of the map span and its detail: the LBA and the packed PPA.
var (
	ftlTrack = trace.Intern("ftl")
	mapName  = trace.Intern("map")
	mapKind  = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("lba=%d %v", LBA(a[0]), flash.UnpackPPA(a[1]))
	})
)

func mapDetail(lba LBA, ppa flash.PPA) trace.Detail {
	return trace.Detail{Kind: mapKind, Args: [3]int64{int64(lba), ppa.Pack()}}
}

// SetTracer attaches an event tracer (nil to disable).
func (f *FTL) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetSpan sets the causal parent for subsequently recorded events (the
// in-flight NVMe command's span; see flash.Array.SetSpan).
func (f *FTL) SetSpan(s trace.SpanID) { f.span = s }

// New returns an FTL over the array.
func New(array *flash.Array, cfg Config) *FTL {
	geo := array.Geometry()
	f := &FTL{
		array:     array,
		cfg:       cfg,
		mapTable:  make(map[LBA]flash.PPA),
		badBlocks: make(map[flash.BlockAddr]bool),
	}
	total := int64(0)
	for c := 0; c < geo.Channels; c++ {
		for d := 0; d < geo.DiesPerChannel; d++ {
			for p := 0; p < geo.PlanesPerDie; p++ {
				pl := &plane{blocks: make(map[flash.BlockAddr]*blockState)}
				for b := 0; b < geo.BlocksPerPlane; b++ {
					addr := flash.BlockAddr{Channel: c, Die: d, Plane: p, Block: b}
					pl.free = append(pl.free, &addr)
					total++
				}
				f.planes = append(f.planes, pl)
			}
		}
	}
	f.userPages = total * int64(geo.PagesPerBlock) * int64(100-cfg.OverprovisionPct) / 100
	return f
}

// PageSize returns the mapping granularity.
func (f *FTL) PageSize() units.Bytes { return f.array.Geometry().PageSize }

// UserCapacity returns the exported logical capacity.
func (f *FTL) UserCapacity() units.Bytes {
	return units.Bytes(f.userPages) * f.PageSize()
}

// Lookup translates an LBA, or returns ErrUnmapped.
func (f *FTL) Lookup(lba LBA) (flash.PPA, error) {
	ppa, ok := f.mapTable[lba]
	if !ok {
		return flash.PPA{}, ErrUnmapped
	}
	return ppa, nil
}

// MappedPages returns the number of live logical pages.
func (f *FTL) MappedPages() int64 { return int64(len(f.mapTable)) }

// GCStats returns garbage-collection activity: runs and pages relocated.
func (f *FTL) GCStats() (runs, pagesMoved int64) { return f.gcRuns, f.gcMoved }

// Read reads one logical page, returning its content and the completion
// time. Uncorrectable flash errors surface as ErrMediaError.
func (f *FTL) Read(ready units.Time, lba LBA) ([]byte, units.Time, error) {
	ppa, err := f.Lookup(lba)
	if err != nil {
		return nil, ready, fmt.Errorf("%w: %d", ErrUnmapped, lba)
	}
	if f.tracer != nil {
		// Translation itself is free (an in-DRAM table walk): a point event.
		f.tracer.Span(ftlTrack, mapName, mapDetail(lba, ppa), f.span, ready, ready)
	}
	data, done, err := f.array.Read(ready, ppa)
	if errors.Is(err, flash.ErrUncorrectable) {
		return nil, done, fmt.Errorf("%w: lba %d at %v: %v", ErrMediaError, lba, ppa, err)
	}
	return data, done, err
}

// Write writes one logical page, invalidating any previous mapping, and
// returns the completion time. It may trigger garbage collection.
func (f *FTL) Write(ready units.Time, lba LBA, data []byte) (units.Time, error) {
	if int64(len(f.mapTable)) >= f.userPages {
		if _, mapped := f.mapTable[lba]; !mapped {
			return ready, fmt.Errorf("ftl: logical capacity exhausted (%d pages)", f.userPages)
		}
	}
	pl, done, err := f.allocate(ready)
	if err != nil {
		return ready, err
	}
	ready = done
	bs := pl.active
	page := bs.nextPage
	ppa := bs.addr.WithPage(page)
	done, err = f.array.Program(ready, ppa, data)
	if err != nil {
		return ready, err
	}
	// Invalidate old mapping.
	if old, ok := f.mapTable[lba]; ok {
		f.invalidate(old)
	}
	f.mapTable[lba] = ppa
	bs.lbas[page] = lba
	bs.valid++
	bs.nextPage++
	return done, nil
}

// Trim drops the mapping for an LBA (used when reinitializing datasets).
func (f *FTL) Trim(lba LBA) {
	if old, ok := f.mapTable[lba]; ok {
		f.invalidate(old)
		delete(f.mapTable, lba)
	}
}

func (f *FTL) invalidate(ppa flash.PPA) {
	pl := f.planeOf(ppa.BlockAddress())
	if bs, ok := pl.blocks[ppa.BlockAddress()]; ok {
		if bs.lbas[ppa.Page] >= 0 {
			bs.lbas[ppa.Page] = -1
			bs.valid--
		}
	}
}

func (f *FTL) planeOf(b flash.BlockAddr) *plane {
	geo := f.array.Geometry()
	idx := ((b.Channel*geo.DiesPerChannel)+b.Die)*geo.PlanesPerDie + b.Plane
	return f.planes[idx]
}

// allocate ensures the round-robin target plane has an active block with a
// free page, running GC if the plane is low on free blocks. It returns the
// chosen plane and the time at which the page is allocatable.
func (f *FTL) allocate(ready units.Time) (*plane, units.Time, error) {
	geo := f.array.Geometry()
	var lastErr error
	for attempts := 0; attempts < len(f.planes); attempts++ {
		pl := f.planes[f.nextPl]
		f.nextPl = (f.nextPl + 1) % len(f.planes)
		if pl.active != nil && pl.active.nextPage < geo.PagesPerBlock {
			return pl, ready, nil
		}
		// Need a fresh block on this plane.
		if len(pl.free) <= f.cfg.GCThresholdBlocks {
			done, err := f.collect(ready, pl)
			if err != nil {
				lastErr = err
			} else {
				ready = done
			}
		}
		// GC installs a new (partially filled) active block; use it.
		if pl.active != nil && pl.active.nextPage < geo.PagesPerBlock {
			return pl, ready, nil
		}
		if len(pl.free) == 0 {
			continue // plane exhausted even after GC; try the next one
		}
		if bs := f.openBlock(pl); bs != nil {
			pl.active = bs
			return pl, ready, nil
		}
	}
	if lastErr != nil {
		return nil, ready, lastErr
	}
	return nil, ready, errors.New("ftl: no plane has free blocks")
}

// openBlock pops a free, non-retired block on pl and registers an empty
// block state.
func (f *FTL) openBlock(pl *plane) *blockState {
	geo := f.array.Geometry()
	for len(pl.free) > 0 && f.badBlocks[*pl.free[0]] {
		pl.free = pl.free[1:]
	}
	if len(pl.free) == 0 {
		return nil
	}
	addr := *pl.free[0]
	pl.free = pl.free[1:]
	bs := &blockState{addr: addr, lbas: make([]LBA, geo.PagesPerBlock)}
	for i := range bs.lbas {
		bs.lbas[i] = -1
	}
	pl.blocks[addr] = bs
	return bs
}

// collect performs greedy garbage collection on one plane: pick the full
// block with the fewest valid pages (it must hold at least one stale page,
// otherwise erasing it reclaims nothing; ties go to the lowest block
// number, so the choice never depends on map order), relocate its live
// pages into a reserved destination block on the same plane, and erase
// the victim. The destination becomes the plane's new active block, so
// relocation never re-enters the write path — GC cannot recurse.
func (f *FTL) collect(ready units.Time, pl *plane) (units.Time, error) {
	geo := f.array.Geometry()
	var victim *blockState
	for _, bs := range pl.blocks {
		if bs == pl.active || bs.nextPage < geo.PagesPerBlock || bs.valid >= geo.PagesPerBlock {
			continue
		}
		if victim == nil || bs.valid < victim.valid ||
			bs.valid == victim.valid && bs.addr.Block < victim.addr.Block {
			victim = bs
		}
	}
	if victim == nil {
		return ready, nil // nothing reclaimable yet
	}
	if len(pl.free) == 0 {
		return ready, errors.New("ftl: garbage collection has no destination block (overprovisioning exhausted)")
	}
	dst := f.openBlock(pl)
	if dst == nil {
		return ready, errors.New("ftl: every free block on the plane is retired")
	}
	f.gcRuns++
	for page, lba := range victim.lbas {
		if lba < 0 {
			continue
		}
		data, t, err := f.array.Read(ready, victim.addr.WithPage(page))
		if err != nil {
			return ready, err
		}
		ppa := dst.addr.WithPage(dst.nextPage)
		t, err = f.array.Program(t, ppa, data)
		if err != nil {
			return ready, err
		}
		ready = t
		dst.lbas[dst.nextPage] = lba
		dst.nextPage++
		dst.valid++
		victim.lbas[page] = -1
		victim.valid--
		f.mapTable[lba] = ppa
		f.gcMoved++
	}
	done, err := f.array.Erase(ready, victim.addr)
	if err != nil {
		return ready, err
	}
	delete(pl.blocks, victim.addr)
	addr := victim.addr
	pl.free = append(pl.free, &addr)
	pl.active = dst
	return done, nil
}

// CheckInvariants validates internal consistency: every mapped LBA points
// at a programmed page whose reverse mapping agrees, and valid counts match
// the per-block lba tables. Tests call this after workloads.
func (f *FTL) CheckInvariants() error {
	for lba, ppa := range f.mapTable {
		pl := f.planeOf(ppa.BlockAddress())
		bs, ok := pl.blocks[ppa.BlockAddress()]
		if !ok {
			return fmt.Errorf("ftl: lba %d maps to untracked block %v", lba, ppa)
		}
		if bs.lbas[ppa.Page] != lba {
			return fmt.Errorf("ftl: reverse map mismatch for lba %d at %v: got %d", lba, ppa, bs.lbas[ppa.Page])
		}
		if !f.array.Programmed(ppa) {
			return fmt.Errorf("ftl: lba %d maps to unprogrammed page %v", lba, ppa)
		}
	}
	for _, pl := range f.planes {
		for addr, bs := range pl.blocks {
			valid := 0
			for _, l := range bs.lbas {
				if l >= 0 {
					valid++
				}
			}
			if valid != bs.valid {
				return fmt.Errorf("ftl: block %v valid count %d != recomputed %d", addr, bs.valid, valid)
			}
		}
	}
	return nil
}

// Snapshot captures the logical->physical map for comparing FTL state
// across runs (used to verify Morpheus leaves the FTL untouched).
func (f *FTL) Snapshot() map[LBA]flash.PPA {
	out := make(map[LBA]flash.PPA, len(f.mapTable))
	for k, v := range f.mapTable {
		out[k] = v
	}
	return out
}
