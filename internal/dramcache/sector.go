package dramcache

import (
	"bear/internal/dram"
	"bear/internal/fault"
	"bear/internal/sram"
	"bear/internal/stats"
)

// Sector is the Sector-Cache design of Section 8 (a Footprint-cache-style
// organisation without the prefetcher): tags are kept at 4 KB-sector
// granularity in an idealised 6 MB on-chip SRAM, with per-line valid and
// dirty bits. Probes are free, but a sector replacement must recover every
// dirty line of the victim sector from the DRAM cache and write it to
// memory — the dirty-replacement penalty the paper identifies as SC's
// downfall.
type Sector = Controller

// sectorTags is the sector-granular tag store: an sram.Cache keyed by
// sector address (an sram.Mapper splits lines into sector/offset
// coordinates), with per-line valid/dirty bits per frame. The frame index
// is derived from the tag's (set, way) position — the same slab geometry
// the SoA cache already maintains — so no side map is needed.
type sectorTags struct {
	c *Controller

	tags      *sram.Cache // keyed by sector address
	ways      uint64
	amap      sram.Mapper // line -> (sector, offset)
	validBits []uint64
	dirtyBits []uint64

	channels uint64
	banks    uint64
	lpr      uint64
}

// frameOf returns the data frame of a resident sector.
func (t *sectorTags) frameOf(sector uint64) (uint64, bool) {
	way, ok := t.tags.WayOf(sector)
	if !ok {
		return 0, false
	}
	return t.tags.SetIndex(sector)*t.ways + uint64(way), true
}

// locateLine maps a (frame, offset) to DRAM coordinates.
func (t *sectorTags) locateLine(frame, offset uint64) Location {
	unit := (frame*t.amap.BlockLines() + offset) / t.lpr
	ch := int(unit % t.channels)
	rest := unit / t.channels
	bk := int(rest % t.banks)
	return Location{Ch: ch, Bk: bk, Row: rest / t.banks}
}

// Lookup implements TagStore. A resident sector with the line absent is
// reported as a miss with FreeFill set: both reads (fetch just the line)
// and writebacks (install in place) fill into the sector without a victim.
func (t *sectorTags) Lookup(_ uint64, line uint64) Probe {
	sector, off := t.amap.Split(line)
	frame, ok := t.frameOf(sector)
	if !ok {
		return Probe{Set: t.tags.SetIndex(sector), Block: sector}
	}
	return Probe{
		Hit:      t.validBits[frame]&(1<<off) != 0,
		Loc:      t.locateLine(frame, off),
		Set:      t.tags.SetIndex(sector),
		Block:    sector,
		FreeFill: true,
	}
}

// Touch implements TagStore (sector-granular LRU promotion).
func (t *sectorTags) Touch(line uint64) {
	t.tags.Access(t.amap.Block(line), false)
}

// allocSector installs a sector, evicting a victim sector if needed, and
// returns the new sector's frame. Dirty victim lines are read from the
// DRAM cache and forwarded to memory at time now.
func (t *sectorTags) allocSector(now uint64, sector uint64) uint64 {
	set := t.tags.SetIndex(sector)
	way := t.tags.VictimWay(sector)
	frame := set*t.ways + uint64(way)
	ev := t.tags.Fill(sector, false, 0)
	if ev.Valid {
		valid, dirty := t.validBits[frame], t.dirtyBits[frame]
		for off := uint64(0); off < t.amap.BlockLines(); off++ {
			bit := uint64(1) << off
			if valid&bit == 0 {
				continue
			}
			victimLine := t.amap.Line(ev.Addr, off)
			if t.c.hooks.OnEvict != nil {
				t.c.hooks.OnEvict(victimLine)
			}
			if dirty&bit != 0 {
				// Recover the dirty line before the frame is reused.
				t.c.l4Read(now, t.locateLine(frame, off), stats.VictimRead, 64, t.c.mem.VictimFwd(victimLine, 0))
			}
		}
	}
	t.validBits[frame] = 0
	t.dirtyBits[frame] = 0
	return frame
}

// Fill implements TagStore: a resident sector takes the line in place
// (promoting the sector); a sector miss allocates, paying any dirty-victim
// recovery at issue — so no victim is ever reported to the engine. Sector
// fills always insert at MRU (no insertion-policy composition), so mru is
// ignored.
func (t *sectorTags) Fill(now uint64, line, _ uint64, _ bool) FillResult {
	sector, off := t.amap.Split(line)
	frame, ok := t.frameOf(sector)
	if ok {
		t.tags.Access(sector, false)
	} else {
		frame = t.allocSector(now, sector)
	}
	t.validBits[frame] |= 1 << off
	return FillResult{Loc: t.locateLine(frame, off)}
}

// WritebackHit implements TagStore.
func (t *sectorTags) WritebackHit(line uint64) {
	sector, off := t.amap.Split(line)
	if frame, ok := t.frameOf(sector); ok {
		t.dirtyBits[frame] |= 1 << off
	}
}

// WritebackFill implements TagStore: only called on the FreeFill path
// (sector resident, line absent) — set the line's valid and dirty bits.
func (t *sectorTags) WritebackFill(_ uint64, line uint64) FillResult {
	sector, off := t.amap.Split(line)
	frame, ok := t.frameOf(sector)
	if !ok {
		panic(fault.Invariantf("dramcache", "sector WritebackFill without resident sector"))
	}
	bit := uint64(1) << off
	t.validBits[frame] |= bit
	t.dirtyBits[frame] |= bit
	return FillResult{Loc: t.locateLine(frame, off)}
}

// Contains implements TagStore.
func (t *sectorTags) Contains(line uint64) bool {
	sector, off := t.amap.Split(line)
	frame, ok := t.frameOf(sector)
	if !ok {
		return false
	}
	return t.validBits[frame]&(1<<off) != 0
}

// Install implements TagStore.
func (t *sectorTags) Install(lines ...uint64) {
	for _, line := range lines {
		sector, off := t.amap.Split(line)
		frame, ok := t.frameOf(sector)
		if !ok {
			set := t.tags.SetIndex(sector)
			way := t.tags.VictimWay(sector)
			frame = set*t.ways + uint64(way)
			t.tags.Fill(sector, false, 0)
			t.validBits[frame] = 0
			t.dirtyBits[frame] = 0
		}
		t.validBits[frame] |= 1 << off
	}
}

// sectorLayout: probes are free (tags on chip), data operations move 64 B
// lines; victims are settled at issue inside the tag store, never by the
// engine.
var sectorLayout = Layout{
	HitBytes:      64,
	FillBytes:     64,
	WBUpdateBytes: 64,
}

// NewSector composes a sector cache of `lines` total data lines, grouped
// into sectors of sectorLines lines (must be <= 64), with the given sector
// associativity.
func NewSector(name string, lines uint64, sectorLines uint64, ways int, l4 *dram.Memory, mem *MainMemory, hooks Hooks) *Sector {
	if sectorLines == 0 || sectorLines > 64 {
		panic(fault.Invariantf("dramcache", "sector size must be 1..64 lines, got %d", sectorLines))
	}
	cfg := l4.Config()
	sectors := lines / sectorLines
	sets := sectors / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	frames := sets * uint64(ways)
	c := newController(name, sectorLayout, l4, mem, hooks)
	c.wb = directWB{}
	c.tags = &sectorTags{
		c:         c,
		tags:      sram.New(sets, ways),
		ways:      uint64(ways),
		amap:      sram.NewMapper(sectorLines),
		validBits: make([]uint64, frames),
		dirtyBits: make([]uint64, frames),
		channels:  uint64(cfg.Channels),
		banks:     uint64(cfg.Banks),
		lpr:       uint64(cfg.RowBytes / 64),
	}
	return c
}
