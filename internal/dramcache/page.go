package dramcache

import (
	"bear/internal/fault"
	"bear/internal/sram"
)

// pageTags is the page-grained tag store shared by the Banshee and TicToc
// compositions: the same sram.Cache SoA slabs, way-hint table and LRU
// machinery that serve line tags, keyed by page (block) address through an
// sram.Mapper, with per-frame valid/dirty bitsets tracking sub-block
// (line) state. The data frame of a resident page is derived from its tag
// position (set*ways + way), exactly like the sector store — no side map,
// so the hot path stays allocation-free.
//
// Two fill modes cover the two papers: fullFill=true fetches the whole
// page on a miss (Banshee's page-granularity fills — FillResult.FillLines
// reports the scale and the engine streams the tail from memory);
// fullFill=false fetches only the demand line into the resident frame
// (TicToc keeps page frames but fills footprint-style). In both modes a
// page eviction hands the engine the victim's dirty mask, so only dirty
// lines pay recovery reads and memory writes (partial-page writeback).
type pageTags struct {
	c *Controller

	tags      *sram.Cache // keyed by page (block) address
	ways      uint64
	amap      sram.Mapper // line -> (page, offset)
	validBits []uint64    // per-frame sub-block valid bits
	dirtyBits []uint64    // per-frame sub-block dirty bits
	fullFill  bool        // page miss fetches the whole page, not one line

	// onEvictPage keeps composition-side structures (Banshee's tag buffer,
	// TicToc's tag cache) coherent with page evictions; may be nil.
	onEvictPage func(page uint64)

	channels uint64
	banks    uint64
	lpr      uint64
}

func newPageTags(c *Controller, lines, pageLines uint64, ways int, fullFill bool) *pageTags {
	cfg := c.l4.Config()
	pages := lines / pageLines
	sets := pages / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	frames := sets * uint64(ways)
	return &pageTags{
		c:         c,
		tags:      sram.New(sets, ways),
		ways:      uint64(ways),
		amap:      sram.NewMapper(pageLines),
		validBits: make([]uint64, frames),
		dirtyBits: make([]uint64, frames),
		fullFill:  fullFill,
		channels:  uint64(cfg.Channels),
		banks:     uint64(cfg.Banks),
		lpr:       uint64(cfg.RowBytes / 64),
	}
}

// frameOf returns the data frame of a resident page.
func (t *pageTags) frameOf(page uint64) (uint64, bool) {
	way, ok := t.tags.WayOf(page)
	if !ok {
		return 0, false
	}
	return t.tags.SetIndex(page)*t.ways + uint64(way), true
}

// resident reports whether page has a frame (regardless of line validity).
func (t *pageTags) resident(page uint64) bool {
	_, ok := t.tags.Lookup(page)
	return ok
}

// lineValid reports functional residency of one line (ground truth for
// filter answers).
func (t *pageTags) lineValid(line uint64) bool {
	page, off := t.amap.Split(line)
	frame, ok := t.frameOf(page)
	return ok && t.validBits[frame]&(1<<off) != 0
}

// locateLine maps a (frame, offset) to DRAM coordinates.
func (t *pageTags) locateLine(frame, offset uint64) Location {
	unit := (frame*t.amap.BlockLines() + offset) / t.lpr
	ch := int(unit % t.channels)
	rest := unit / t.channels
	bk := int(rest % t.banks)
	return Location{Ch: ch, Bk: bk, Row: rest / t.banks}
}

// Lookup implements TagStore. A resident page with the demand line absent
// is a miss with FreeFill set: reads fetch just the line into the frame and
// writebacks install in place, with no victim either way.
func (t *pageTags) Lookup(_ uint64, line uint64) Probe {
	page, off := t.amap.Split(line)
	frame, ok := t.frameOf(page)
	if !ok {
		set := t.tags.SetIndex(page)
		// Absent page: report the set's first frame so probes (writeback
		// dirty probes) address the set's tag location.
		return Probe{Loc: t.locateLine(set*t.ways, off), Set: set, Block: page}
	}
	return Probe{
		Hit:      t.validBits[frame]&(1<<off) != 0,
		Loc:      t.locateLine(frame, off),
		Set:      t.tags.SetIndex(page),
		Block:    page,
		FreeFill: true,
	}
}

// Touch implements TagStore (page-granular LRU promotion).
func (t *pageTags) Touch(line uint64) {
	t.tags.Access(t.amap.Block(line), false)
}

// evictFrame routes a page eviction: per-line hierarchy hooks for every
// valid line, composition coherence for the page, and the dirty mask back
// to the caller so the engine can schedule the partial-page writeback.
func (t *pageTags) evictFrame(frame, page uint64) (dirtyMask uint64) {
	valid, dirty := t.validBits[frame], t.dirtyBits[frame]
	if t.c.hooks.OnEvict != nil {
		for off := uint64(0); off < t.amap.BlockLines(); off++ {
			if valid&(1<<off) != 0 {
				t.c.hooks.OnEvict(t.amap.Line(page, off))
			}
		}
	}
	if t.onEvictPage != nil {
		t.onEvictPage(page)
	}
	return dirty
}

// Fill implements TagStore. A resident page takes the demand line in place
// (promoting the page, one line of fill); a page miss allocates a frame —
// whole-page or demand-line according to the fill mode — and reports the
// displaced page's dirty lines to the engine via VictimDirtyMask, so the
// recovery read and the memory forwards cover exactly the dirty subset.
func (t *pageTags) Fill(_ uint64, line, _ uint64, mru bool) FillResult {
	page, off := t.amap.Split(line)
	if frame, ok := t.frameOf(page); ok {
		// Resident page, absent line: demand-fill in place.
		t.tags.Access(page, false)
		t.validBits[frame] |= 1 << off
		return FillResult{Loc: t.locateLine(frame, off), FillLines: 1}
	}
	set := t.tags.SetIndex(page)
	way := t.tags.VictimWay(page)
	frame := set*t.ways + uint64(way)
	var ev sram.Eviction
	if mru {
		ev = t.tags.Fill(page, false, 0)
	} else {
		ev = t.tags.FillLRU(page, false, 0)
	}
	fr := FillResult{}
	if ev.Valid {
		dirty := t.evictFrame(frame, ev.Addr)
		fr.VictimLine = t.amap.Line(ev.Addr, 0)
		fr.VictimValid = true
		fr.VictimDirty = dirty != 0
		fr.VictimDirtyMask = dirty
	}
	if t.fullFill {
		if n := t.amap.BlockLines(); n == 64 {
			t.validBits[frame] = ^uint64(0)
			fr.FillLines = 64
		} else {
			t.validBits[frame] = 1<<n - 1
			fr.FillLines = int(n)
		}
	} else {
		t.validBits[frame] = 1 << off
		fr.FillLines = 1
	}
	t.dirtyBits[frame] = 0
	fr.Loc = t.locateLine(frame, off)
	return fr
}

// WritebackHit implements TagStore.
func (t *pageTags) WritebackHit(line uint64) {
	page, off := t.amap.Split(line)
	if frame, ok := t.frameOf(page); ok {
		t.dirtyBits[frame] |= 1 << off
	}
}

// WritebackFill implements TagStore: only reachable on the FreeFill path
// (page resident, line absent) — set the line's valid and dirty bits.
func (t *pageTags) WritebackFill(_ uint64, line uint64) FillResult {
	page, off := t.amap.Split(line)
	frame, ok := t.frameOf(page)
	if !ok {
		panic(fault.Invariantf("dramcache", "page WritebackFill without resident page"))
	}
	bit := uint64(1) << off
	t.validBits[frame] |= bit
	t.dirtyBits[frame] |= bit
	return FillResult{Loc: t.locateLine(frame, off)}
}

// Contains implements TagStore.
func (t *pageTags) Contains(line uint64) bool { return t.lineValid(line) }

// Install implements TagStore: free functional pre-warming (a page frame
// accretes valid bits as its lines are installed; a displaced prewarm
// victim is simply dropped, like the sector store).
func (t *pageTags) Install(lines ...uint64) {
	for _, line := range lines {
		page, off := t.amap.Split(line)
		frame, ok := t.frameOf(page)
		if !ok {
			set := t.tags.SetIndex(page)
			way := t.tags.VictimWay(page)
			frame = set*t.ways + uint64(way)
			ev := t.tags.Fill(page, false, 0)
			if ev.Valid && t.onEvictPage != nil {
				t.onEvictPage(ev.Addr)
			}
			t.validBits[frame] = 0
			t.dirtyBits[frame] = 0
		}
		t.validBits[frame] |= 1 << off
	}
}

var _ TagStore = (*pageTags)(nil)

// checkPageGeometry validates the shape shared by NewBanshee and NewTicToc.
func checkPageGeometry(lines, pageLines uint64) {
	if pageLines == 0 || pageLines > 64 {
		panic(fault.Invariantf("dramcache", "page size must be 1..64 lines, got %d", pageLines))
	}
	if lines < pageLines {
		panic(fault.Invariantf("dramcache", "cache of %d lines smaller than one %d-line page", lines, pageLines))
	}
}
