package dramcache

import (
	"bear/internal/dram"
	"bear/internal/fault"
	"bear/internal/sram"
)

// TIS is the Tags-In-SRAM design of Section 8: an idealised on-chip SRAM
// holds all tags (64 MB at full scale, un-penalised for storage or access
// latency, per the paper's methodology) in front of a 32-way data store in
// stacked DRAM. Probes are free; only data movement touches the DRAM-cache
// bus, so hits move exactly 64 B — but Miss Fills, Writeback Updates and
// dirty-victim reads still bloat the bus.
type TIS = Controller

// sramTags is the tags-in-SRAM tag store: a set-associative sram.Cache
// answers presence instantly, and the (set, way) pair locates the line's
// data frame in the DRAM array.
type sramTags struct {
	c *Controller

	tags     *sram.Cache
	ways     uint64
	channels uint64
	banks    uint64
	lpr      uint64 // data lines per DRAM row
}

// locateFrame maps a (set, way) data frame to DRAM coordinates.
func (t *sramTags) locateFrame(set uint64, way int) Location {
	unit := (set*t.ways + uint64(way)) / t.lpr
	ch := int(unit % t.channels)
	rest := unit / t.channels
	bk := int(rest % t.banks)
	return Location{Ch: ch, Bk: bk, Row: rest / t.banks}
}

// Lookup implements TagStore.
func (t *sramTags) Lookup(_ uint64, line uint64) Probe {
	set := t.tags.SetIndex(line)
	if way, ok := t.tags.WayOf(line); ok {
		return Probe{Hit: true, Loc: t.locateFrame(set, way), Set: set, Block: line}
	}
	return Probe{Set: set, Block: line}
}

// Touch implements TagStore (LRU promotion on a demand hit).
func (t *sramTags) Touch(line uint64) { t.tags.Access(line, false) }

// Fill implements TagStore: tags answer instantly (idealised SRAM), the
// displaced victim's frame is reused for the new line. mru=false places the
// line at the LRU position (DIP's bimodal inserts, composed in build.go).
func (t *sramTags) Fill(_ uint64, line, _ uint64, mru bool) FillResult {
	set := t.tags.SetIndex(line)
	way := t.tags.VictimWay(line)
	var ev sram.Eviction
	if mru {
		ev = t.tags.Fill(line, false, 0)
	} else {
		ev = t.tags.FillLRU(line, false, 0)
	}
	if ev.Valid && t.c.hooks.OnEvict != nil {
		t.c.hooks.OnEvict(ev.Addr)
	}
	return FillResult{
		Loc:         t.locateFrame(set, way),
		VictimLine:  ev.Addr,
		VictimValid: ev.Valid,
		VictimDirty: ev.Dirty,
	}
}

// WritebackHit implements TagStore.
func (t *sramTags) WritebackHit(line uint64) { t.tags.SetDirty(line) }

// WritebackFill implements TagStore (unreachable: TIS never allocates on
// writeback misses).
func (t *sramTags) WritebackFill(uint64, uint64) FillResult {
	panic(fault.Invariantf("dramcache", "TIS writeback never allocates"))
}

// Contains implements TagStore.
func (t *sramTags) Contains(line uint64) bool {
	_, ok := t.tags.Lookup(line)
	return ok
}

// Install implements TagStore.
func (t *sramTags) Install(lines ...uint64) {
	for _, line := range lines {
		if _, ok := t.tags.Lookup(line); !ok {
			t.tags.Fill(line, false, 0)
		}
	}
}

// tisLayout: probes are free (tags on chip); every data operation moves one
// 64 B line, and dirty victims must be read back before their frame is
// reused.
var tisLayout = Layout{
	HitBytes:        64,
	FillBytes:       64,
	VictimReadBytes: 64,
	WBUpdateBytes:   64,
}

// NewTIS composes a Tags-In-SRAM cache holding `lines` data lines with the
// given associativity.
func NewTIS(name string, lines uint64, ways int, l4 *dram.Memory, mem *MainMemory, hooks Hooks) *TIS {
	cfg := l4.Config()
	sets := lines / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	c := newController(name, tisLayout, l4, mem, hooks)
	c.wb = directWB{}
	c.tags = &sramTags{
		c:        c,
		tags:     sram.New(sets, ways),
		ways:     uint64(ways),
		channels: uint64(cfg.Channels),
		banks:    uint64(cfg.Banks),
		lpr:      uint64(cfg.RowBytes / 64),
	}
	return c
}
