package sram

import (
	"testing"

	"bear/internal/rng"
)

// TestMapperRoundTrip drives randomized line addresses through every
// power-of-two mapper geometry (line-grained, sectored, paged), checks the
// line → (block, sub) → line round trip plus the coordinate invariants,
// and checks that every other block size is refused.
func TestMapperRoundTrip(t *testing.T) {
	for _, lines := range []uint64{0, 3, 7, 28, 63, 65, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMapper(%d) did not panic", lines)
				}
			}()
			NewMapper(lines)
		}()
	}
	geometries := []uint64{1, 2, 4, 8, 16, 32, 64}
	src := rng.New(0xb10c)
	for _, lines := range geometries {
		m := NewMapper(lines)
		if got := m.BlockLines(); got != lines {
			t.Fatalf("BlockLines() = %d, want %d", got, lines)
		}
		for i := 0; i < 4096; i++ {
			line := src.Uint64() >> 1 // keep block*lines+sub overflow-free
			block, sub := m.Split(line)
			if block != m.Block(line) || sub != m.Sub(line) {
				t.Fatalf("lines=%d line=%#x: Split (%d,%d) disagrees with Block/Sub (%d,%d)",
					lines, line, block, sub, m.Block(line), m.Sub(line))
			}
			if sub >= lines {
				t.Fatalf("lines=%d line=%#x: sub %d out of range", lines, line, sub)
			}
			if got := m.Line(block, sub); got != line {
				t.Fatalf("lines=%d: Line(%d, %d) = %#x, want %#x", lines, block, sub, got, line)
			}
		}
	}
}

// TestMapperSetTagRoundTrip checks the full address → (set, tag, sub-block)
// decomposition used by page-grained tag stores: every line of one block
// lands in the same set of a block-keyed Cache, blocks that differ map to
// distinct (set, tag) pairs, and the hint/sweep machinery resolves block
// keys exactly like line keys.
func TestMapperSetTagRoundTrip(t *testing.T) {
	type geom struct {
		sets       uint64
		ways       int
		blockLines uint64
	}
	geometries := []geom{
		{64, 4, 64}, // paged, pow2 sets
		{56, 8, 64}, // paged, non-pow2 sets (Alloy-style row geometry)
		{128, 2, 8}, // sectored
		{16, 29, 1}, // line-grained, Loh-Hill associativity
	}
	src := rng.New(0x5e7)
	for _, g := range geometries {
		m := NewMapper(g.blockLines)
		c := New(g.sets, g.ways)
		for i := 0; i < 2048; i++ {
			line := src.Uint64() >> 1
			block, sub := m.Split(line)
			set := c.SetIndex(block)
			if set >= g.sets {
				t.Fatalf("geom %+v: set %d out of range", g, set)
			}
			// Every line of the block shares the block's set.
			if other := c.SetIndex(m.Block(m.Line(block, (sub+1)%g.blockLines))); other != set {
				t.Fatalf("geom %+v: sibling line of block %#x maps to set %d, want %d",
					g, block, other, set)
			}
			// The Cache resolves block keys through fill/lookup/invalidate
			// exactly like line keys: install, find in the same set, remove.
			if _, ok := c.Lookup(block); !ok {
				c.Fill(block, false, uint8(sub))
			}
			ln, ok := c.Lookup(block)
			if !ok || ln.Addr != block {
				t.Fatalf("geom %+v: block %#x not found after fill", g, block)
			}
			if i, ok := c.Slot(block); !ok || i/uint64(g.ways) != set {
				t.Fatalf("geom %+v: Slot(%#x) = (%d, %v), want a slot of set %d", g, block, i, ok, set)
			}
		}
	}
}
