package dramcache

import "bear/internal/dram"

// TIS is the Tags-In-SRAM design of Section 8: an idealised on-chip SRAM
// holds all tags (64 MB at full scale, un-penalised for storage or access
// latency, per the paper's methodology) in front of a 32-way data store in
// stacked DRAM. Probes are free; only data movement touches the DRAM-cache
// bus, so hits move exactly 64 B — but Miss Fills, Writeback Updates and
// dirty-victim reads still bloat the bus. The tag store is blockTags with
// one-line blocks.
type TIS = Controller

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
	c := newController(name, tisLayout, l4, mem, hooks)
	c.wb = directWB{}
	c.tags = newBlockTags(c, lines, 1, ways, false)
	return c
}
