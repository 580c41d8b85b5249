package dramcache

import (
	"testing"

	"bear/internal/config"
	"bear/internal/rng"
)

// FuzzTADSetIndex checks the TAD store's divide-free set index against
// line / sets and line % sets for every set count, and for lines up to
// maxLine.
func FuzzTADSetIndex(f *testing.F) {
	sets := []uint64{1, 2, 3, 7, 28, 1 << 10, 1 << 20, 1<<57 + 1, 1 << 63, ^uint64(0)}
	for _, scale := range []int{1, 64, 256} {
		sets = append(sets, config.Default(scale).AlloySets())
	}
	for _, n := range sets {
		for _, line := range []uint64{0, 1, n - 1, n, n + 1, 2654435761, maxLine - 1} {
			f.Add(n, line)
		}
	}
	f.Fuzz(func(t *testing.T, sets, line uint64) {
		if sets == 0 {
			return
		}
		line %= maxLine
		q, r := newSetIndex(sets).split(line)
		if q != line/sets || r != line%sets {
			t.Fatalf("split of line %d over %d sets = (%d, %d), want (%d, %d)", line, sets, q, r, line/sets, line%sets)
		}
	})
}

// TestTADSlotBytes pins the slot widths: five bytes at paper scale, six at
// 1/64 and 1/256, and a full word for a single set.
func TestTADSlotBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		sets  uint64
		bytes uint64
	}{
		{"scale 1", config.Default(1).AlloySets(), 5},
		{"scale 64", config.Default(64).AlloySets(), 6},
		{"scale 256", config.Default(256).AlloySets(), 6},
		{"one set", 1, 8},
	} {
		if got := tadSlotBytes(c.sets); got != c.bytes {
			t.Errorf("%s: %d sets take %d-byte slots, want %d", c.name, c.sets, got, c.bytes)
		}
	}
}

// FuzzTADSlots drives random writes through a TAD store with a random set
// count: after each write, the written set decodes to its line and dirty
// bit, and both neighbouring slots are unchanged.
func FuzzTADSlots(f *testing.F) {
	for _, sets := range []uint64{1, 2, 3, 28, 1<<11 + 1, 1 << 19, 1<<20 - 1} {
		f.Add(sets, uint64(1), uint16(64))
	}
	f.Fuzz(func(t *testing.T, sets, seed uint64, n uint16) {
		// Up to 2^20 sets covers slot widths 8 down to 5.
		sets = sets%(1<<20) + 1
		fx := newFixture()
		tags := NewAlloy("fuzz", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
		r := rng.New(seed)
		slot := func(set uint64) uint64 {
			if set >= sets {
				return 0
			}
			return tags.slot(set)
		}
		for range n {
			line := r.Uint64n(maxLine)
			if r.Bool(0.5) {
				line %= 4 * sets // revisit sets with small tags too
			}
			_, set := tags.sets.split(line)
			before, after := slot(set-1), slot(set+1)
			var dirty bool
			switch r.Intn(4) {
			case 0:
				tags.Fill(0, line, 0, false)
			case 1:
				tags.Install(line)
			case 2:
				tags.WritebackFill(0, line)
				dirty = true
			case 3:
				if !tags.Contains(line) {
					tags.Fill(0, line, 0, false)
				}
				tags.WritebackHit(line)
				dirty = true
			}
			got, valid, gotDirty := tags.line(set)
			if got != line || !valid || gotDirty != dirty || !tags.Contains(line) {
				t.Fatalf("%d sets: set %d decodes to (%d, %v, dirty %v), want (%d, true, dirty %v)",
					sets, set, got, valid, gotDirty, line, dirty)
			}
			if slot(set-1) != before || slot(set+1) != after {
				t.Fatalf("%d sets: writing set %d changed a neighbour", sets, set)
			}
		}
	})
}
