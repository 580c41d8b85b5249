package dramcache

import "bear/internal/dram"

// Sector is the Sector-Cache design of Section 8 (a Footprint-cache-style
// organisation without the prefetcher): tags are kept at 4 KB-sector
// granularity in an idealised 6 MB on-chip SRAM, with per-line valid and
// dirty bits. Probes are free, but a sector replacement must recover every
// dirty line of the victim sector from the DRAM cache and write it to
// memory — the dirty-replacement penalty the paper identifies as SC's
// downfall. The tag store is blockTags in demand-fill mode.
type Sector = Controller

// sectorLayout: probes are free (tags on chip), data operations move 64 B
// lines, and a victim sector's dirty lines are read back one 64 B line
// each when the fill that displaced it lands.
var sectorLayout = Layout{
	HitBytes:        64,
	FillBytes:       64,
	VictimReadBytes: 64,
	WBUpdateBytes:   64,
}

// NewSector composes a sector cache of `lines` total data lines, grouped
// into sectors of sectorLines lines (a power of two, at most 64), with the
// given sector associativity.
func NewSector(name string, lines, sectorLines uint64, ways int, l4 *dram.Memory, mem *MainMemory, hooks Hooks) *Sector {
	c := newController(name, sectorLayout, l4, mem, hooks)
	c.wb = directWB{}
	c.tags = newBlockTags(c, lines, sectorLines, ways, false)
	return c
}
