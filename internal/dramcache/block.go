package dramcache

import (
	"bear/internal/fault"
	"bear/internal/sram"
)

// blockTags is the on-chip tag store of every design whose tags live in
// SRAM over DRAM data frames: Tags-In-SRAM (one-line blocks), the Sector
// Cache (4 KB sectors), Banshee and TicToc (4 KB pages). An sram.Cache —
// the same SoA slabs, way-hint table and LRU machinery that serve line
// tags — is keyed by block address through an sram.Mapper, and the data
// frame of a resident block is its tag position (set*ways + way), so no
// side map is needed and the hot path stays allocation-free. Per-line
// valid and dirty state lives in one flat slab of frames × blockLines bit
// pairs: frame f's line o is bit i = f*blockLines + o of a valid and a
// dirty bit string, whose words interleave (valid word i/64 at slab index
// 2*(i/64), its dirty word beside it), so one cache line holds both. Since
// blockLines is a power of two no larger than 64, a frame's bits never
// straddle a word; one-line blocks cost two bits per frame, not two words.
//
// Two fill modes cover the designs: fullFill=true fetches the whole block
// on a miss (Banshee's page-granularity fills — FillResult.FillLines
// reports the scale and the engine streams the tail from memory);
// fullFill=false fetches only the demand line into the frame (TIS, SC and
// TicToc). In both modes an eviction hands the engine the victim's dirty
// mask, so only dirty lines pay recovery reads and memory writes.
type blockTags struct {
	c *Controller

	tags     *sram.Cache // keyed by block address
	ways     uint64
	amap     sram.Mapper // line -> (block, offset); also (frame, offset) -> bit
	lineMask uint64      // one frame's bits, low-aligned
	bits     []uint64    // per-line valid and dirty bits, interleaved words
	fullFill bool        // a block miss fetches the whole block, not one line

	// onEvictBlock keeps composition-side structures (Banshee's tag
	// buffer, TicToc's tag cache) coherent with block evictions; may be nil.
	onEvictBlock func(block uint64)

	channels uint64
	banks    uint64
	lpr      uint64
}

// newBlockTags builds a store of `lines` data lines in blocks of blockLines
// lines (a power of two in [1, 64]) with the given block associativity.
func newBlockTags(c *Controller, lines, blockLines uint64, ways int, fullFill bool) *blockTags {
	if blockLines == 0 || blockLines > 64 || blockLines&(blockLines-1) != 0 {
		panic(fault.Invariantf("dramcache", "block size must be a power of two in 1..64 lines, got %d", blockLines))
	}
	if lines < blockLines {
		panic(fault.Invariantf("dramcache", "cache of %d lines smaller than one %d-line block", lines, blockLines))
	}
	cfg := c.l4.Config()
	sets := lines / blockLines / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	words := (sets*uint64(ways)*blockLines + 63) / 64 * 2
	return &blockTags{
		c:        c,
		tags:     sram.New(sets, ways),
		ways:     uint64(ways),
		amap:     sram.NewMapper(blockLines),
		lineMask: ^uint64(0) >> (64 - blockLines),
		bits:     make([]uint64, words),
		fullFill: fullFill,
		channels: uint64(cfg.Channels),
		banks:    uint64(cfg.Banks),
		lpr:      uint64(cfg.RowBytes / 64),
	}
}

// at locates line off of frame: the index of its valid word in the slab
// (the dirty word follows) and its bit position in both.
func (t *blockTags) at(frame, off uint64) (w, pos uint64) {
	i := t.amap.Line(frame, off)
	return i / 64 * 2, i % 64
}

// frameBits returns frame's valid and dirty bits, bit o for line o.
func (t *blockTags) frameBits(frame uint64) (valid, dirty uint64) {
	w, pos := t.at(frame, 0)
	return t.bits[w] >> pos & t.lineMask, t.bits[w+1] >> pos & t.lineMask
}

// resetFrame gives frame the valid bits v and no dirty line.
func (t *blockTags) resetFrame(frame, v uint64) {
	w, pos := t.at(frame, 0)
	m := t.lineMask << pos
	t.bits[w] = t.bits[w]&^m | v<<pos
	t.bits[w+1] &^= m
}

// validAt reports whether line off of frame is valid.
func (t *blockTags) validAt(frame, off uint64) bool {
	w, pos := t.at(frame, off)
	return t.bits[w]&(1<<pos) != 0
}

// setLine marks line off of frame valid, and dirty too if dirty is set.
func (t *blockTags) setLine(frame, off uint64, dirty bool) {
	w, pos := t.at(frame, off)
	t.bits[w] |= 1 << pos
	if dirty {
		t.bits[w+1] |= 1 << pos
	}
}

// frameOf returns the data frame of a resident block: its tag's slot.
func (t *blockTags) frameOf(block uint64) (uint64, bool) { return t.tags.Slot(block) }

// resident reports whether block has a frame (regardless of line validity).
func (t *blockTags) resident(block uint64) bool {
	_, ok := t.frameOf(block)
	return ok
}

// locateLine maps a (frame, offset) to DRAM coordinates.
func (t *blockTags) locateLine(frame, offset uint64) Location {
	unit := t.amap.Line(frame, offset) / t.lpr
	ch := int(unit % t.channels)
	rest := unit / t.channels
	bk := int(rest % t.banks)
	return Location{Ch: ch, Bk: bk, Row: rest / t.banks}
}

// Lookup implements TagStore. A resident block with the demand line absent
// is a miss with FreeFill set: reads fetch just the line into the frame and
// writebacks install in place, with no victim either way.
func (t *blockTags) Lookup(_ uint64, line uint64) Probe {
	block, off := t.amap.Split(line)
	set := t.tags.SetIndex(block)
	frame, ok := t.frameOf(block)
	if !ok {
		// Absent block: report the set's first frame so probes (writeback
		// dirty probes) address the set's tag location.
		return Probe{Loc: t.locateLine(set*t.ways, off), Set: set, Block: block}
	}
	return Probe{
		Hit:      t.validAt(frame, off),
		Loc:      t.locateLine(frame, off),
		Set:      set,
		Block:    block,
		FreeFill: true,
	}
}

// Touch implements TagStore (block-granular LRU promotion).
func (t *blockTags) Touch(line uint64) {
	t.tags.Access(t.amap.Block(line), false)
}

// evictFrame routes a block eviction: per-line hierarchy hooks for every
// valid line, composition coherence for the block, and the dirty mask back
// to the caller so the engine can schedule the partial-block writeback.
func (t *blockTags) evictFrame(frame, block uint64) (dirtyMask uint64) {
	valid, dirty := t.frameBits(frame)
	if t.c.hooks.OnEvict != nil {
		for off := uint64(0); off < t.amap.BlockLines(); off++ {
			if valid&(1<<off) != 0 {
				t.c.hooks.OnEvict(t.amap.Line(block, off))
			}
		}
	}
	if t.onEvictBlock != nil {
		t.onEvictBlock(block)
	}
	return dirty
}

// Fill implements TagStore. A resident block takes the demand line in place
// (promoting the block, one line of fill); a block miss allocates a frame —
// whole-block or demand-line according to the fill mode — and reports the
// displaced block's dirty lines to the engine via VictimDirtyMask, so the
// recovery read and the memory forwards cover exactly the dirty subset.
// mru=false places a new block at the LRU position (DIP's bimodal inserts,
// composed in build.go).
func (t *blockTags) Fill(_ uint64, line, _ uint64, mru bool) FillResult {
	block, off := t.amap.Split(line)
	if frame, ok := t.frameOf(block); ok {
		// Resident block, absent line: demand-fill in place.
		t.tags.Access(block, false)
		t.setLine(frame, off, false)
		return FillResult{Loc: t.locateLine(frame, off), FillLines: 1}
	}
	var ev sram.Eviction
	if mru {
		ev = t.tags.Fill(block, false, 0)
	} else {
		ev = t.tags.FillLRU(block, false, 0)
	}
	// The fill trained the way hint, so this is one tag compare.
	frame, _ := t.frameOf(block)
	fr := FillResult{FillLines: 1}
	if ev.Valid {
		dirty := t.evictFrame(frame, ev.Addr)
		fr.VictimLine = t.amap.Line(ev.Addr, 0)
		fr.VictimValid = true
		fr.VictimDirty = dirty != 0
		fr.VictimDirtyMask = dirty
	}
	if t.fullFill {
		t.resetFrame(frame, t.lineMask)
		fr.FillLines = int(t.amap.BlockLines())
	} else {
		t.resetFrame(frame, 1<<off)
	}
	fr.Loc = t.locateLine(frame, off)
	return fr
}

// WritebackHit implements TagStore.
func (t *blockTags) WritebackHit(line uint64) {
	block, off := t.amap.Split(line)
	if frame, ok := t.frameOf(block); ok {
		w, pos := t.at(frame, off)
		t.bits[w+1] |= 1 << pos
	}
}

// WritebackFill implements TagStore: only reachable on the FreeFill path
// (block resident, line absent) — set the line's valid and dirty bits.
func (t *blockTags) WritebackFill(_ uint64, line uint64) FillResult {
	block, off := t.amap.Split(line)
	frame, ok := t.frameOf(block)
	if !ok {
		panic(fault.Invariantf("dramcache", "block WritebackFill without resident block"))
	}
	t.setLine(frame, off, true)
	return FillResult{Loc: t.locateLine(frame, off)}
}

// Contains implements TagStore: functional residency of one line, also the
// ground truth behind the Banshee and TicToc filter answers.
func (t *blockTags) Contains(line uint64) bool {
	block, off := t.amap.Split(line)
	frame, ok := t.frameOf(block)
	return ok && t.validAt(frame, off)
}

// Install implements TagStore: free functional pre-warming. A frame
// accretes valid bits as its lines are installed; a displaced prewarm
// victim is simply dropped, with no hierarchy hook.
func (t *blockTags) Install(lines ...uint64) {
	for _, line := range lines {
		block, off := t.amap.Split(line)
		if frame, ok := t.frameOf(block); ok {
			t.setLine(frame, off, false)
			continue
		}
		ev := t.tags.Fill(block, false, 0)
		if ev.Valid && t.onEvictBlock != nil {
			t.onEvictBlock(ev.Addr)
		}
		frame, _ := t.frameOf(block) // a way-hint hit, as in Fill
		t.resetFrame(frame, 1<<off)
	}
}

var _ TagStore = (*blockTags)(nil)
