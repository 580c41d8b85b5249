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
// sub-block index selects a bit in the caller's per-block valid/dirty
// state (hence the 64-line ceiling). Blocks are a power of two lines, so
// every split is a shift and a mask.
type Mapper struct {
	shift uint   // log2(lines per block)
	mask  uint64 // lines per block - 1
}

// NewMapper returns a Mapper for blocks of blockLines lines. blockLines
// must be a power of two in [1, 64].
func NewMapper(blockLines uint64) Mapper {
	if blockLines == 0 || blockLines > 64 || blockLines&(blockLines-1) != 0 {
		panic(fault.Invariantf("sram", "invalid mapper block size %d lines", blockLines))
	}
	return Mapper{shift: uint(bits.TrailingZeros64(blockLines)), mask: blockLines - 1}
}

// BlockLines returns the number of lines per block.
func (m Mapper) BlockLines() uint64 { return m.mask + 1 }

// Block returns the block address line belongs to.
func (m Mapper) Block(line uint64) uint64 { return line >> m.shift }

// Sub returns line's sub-block index within its block, in [0, BlockLines).
func (m Mapper) Sub(line uint64) uint64 { return line & m.mask }

// Split returns both coordinates in one call.
func (m Mapper) Split(line uint64) (block, sub uint64) {
	return line >> m.shift, line & m.mask
}

// Line reconstructs the line address of sub-block sub within block — the
// inverse of Split.
func (m Mapper) Line(block, sub uint64) uint64 { return block<<m.shift | sub }
