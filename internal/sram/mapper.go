package sram

import (
	"math/bits"

	"bear/internal/fault"
)

// Mapper splits line addresses into (block, sub-block) coordinates for tag
// stores keyed at a coarser granularity than one 64 B line: the sector
// cache's 4 KB sectors and the page-grained Banshee/TicToc designs. The
// block address is what a Cache is keyed by — SetIndex, the way-hint table
// and the LRU slabs all operate on block addresses unchanged, so one SoA
// implementation serves line- and page-grained tags alike — and the
// sub-block index selects a bit in the caller's per-frame valid/dirty
// bitsets (hence the 64-line ceiling).
//
// Power-of-two block sizes (every real geometry) split with a shift and
// mask; the division fallback keeps odd test geometries correct.
type Mapper struct {
	lines uint64 // sub-blocks (lines) per block, in [1, 64]
	shift uint   // log2(lines) when pow2
	mask  uint64 // lines-1 when pow2
	pow2  bool
}

// NewMapper returns a Mapper for blocks of blockLines lines. blockLines
// must be in [1, 64]: sub-block state lives in uint64 bitsets.
func NewMapper(blockLines uint64) Mapper {
	if blockLines == 0 || blockLines > 64 {
		panic(fault.Invariantf("sram", "invalid mapper block size %d lines", blockLines))
	}
	m := Mapper{lines: blockLines}
	if blockLines&(blockLines-1) == 0 {
		m.pow2 = true
		m.shift = uint(bits.TrailingZeros64(blockLines))
		m.mask = blockLines - 1
	}
	return m
}

// BlockLines returns the number of lines per block.
func (m Mapper) BlockLines() uint64 { return m.lines }

// Block returns the block address line belongs to.
func (m Mapper) Block(line uint64) uint64 {
	if m.pow2 {
		return line >> m.shift
	}
	return line / m.lines
}

// Sub returns line's sub-block index within its block, in [0, BlockLines).
func (m Mapper) Sub(line uint64) uint64 {
	if m.pow2 {
		return line & m.mask
	}
	return line % m.lines
}

// Split returns both coordinates in one call.
func (m Mapper) Split(line uint64) (block, sub uint64) {
	if m.pow2 {
		return line >> m.shift, line & m.mask
	}
	return line / m.lines, line % m.lines
}

// Line reconstructs the line address of sub-block sub within block — the
// inverse of Split.
func (m Mapper) Line(block, sub uint64) uint64 {
	if m.pow2 {
		return block<<m.shift | sub
	}
	return block*m.lines + sub
}
