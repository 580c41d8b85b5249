package dramcache

import (
	"testing"

	"bear/internal/config"
	"bear/internal/rng"
	"bear/internal/trace"
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

// maxLine bounds line addresses, as in the trace reader: a line is a 64-bit
// byte address >> 6.
const maxLine = 1 << 58

// TestTADSlotWidth pins the slot width to the widest tag installed: none
// for an empty store, 12 bits for xalanc at paper scale, 18 for mcf at
// 1/64, and a full word for a single set holding the highest line.
func TestTADSlotWidth(t *testing.T) {
	fx := newFixture()
	sets := config.Default(1).AlloySets()
	empty := NewAlloy("empty", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
	if empty.width != 0 || len(empty.slots) != 8 {
		t.Errorf("empty store: width %d over %d bytes, want 0 over 8", empty.width, len(empty.slots))
	}
	for _, line := range []uint64{0, 1, sets - 1, sets, 2*sets + 5, maxLine - 1} {
		if empty.Lookup(0, line).Hit || empty.Contains(line) {
			t.Errorf("empty store: line %d hits", line)
		}
		if _, valid, _ := empty.line(line % sets); valid {
			t.Errorf("empty store: set %d decodes as resident", line%sets)
		}
	}

	for _, c := range []struct {
		bench string
		scale int
		width uint64
	}{
		{"xalanc", 1, 12},
		{"mcf", 64, 18},
	} {
		cfg := config.Default(c.scale)
		wl, err := trace.Rate(c.bench, cfg.Core.Count, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctl := NewAlloy(c.bench, cfg.AlloySets(), fx.l4, fx.mem, Hooks{}, AlloyOpts{})
		ctl.Prewarm(warmRuns(cfg, wl))
		if got := ctl.tags.(*tadTags).width; got != c.width {
			t.Errorf("%s at 1/%d: prewarm leaves %d-bit slots, want %d", c.bench, c.scale, got, c.width)
		}
	}

	one := NewAlloy("one", 1, fx.l4, fx.mem, Hooks{}, AlloyOpts{})
	one.Install(maxLine - 1)
	if got := one.tags.(*tadTags).width; got != 64 {
		t.Errorf("one set holding line maxLine-1: %d-bit slots, want 64", got)
	}
}

// TestTADWideningKeepsDirtyLine widens a store holding a dirty line in
// 3-bit slots to every wider width, 4 to maxSlotBits bits and the full
// word: the line must stay resident and dirty, with its dirty bit moved to
// the new top bit.
func TestTADWideningKeepsDirtyLine(t *testing.T) {
	fx := newFixture()
	for width := uint64(4); width <= 64; width++ {
		if width > maxSlotBits && width < 64 {
			continue // no tag widens to these
		}
		tags := NewAlloy("widen", 2, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
		tags.WritebackFill(0, 4) // set 0, tag 2
		if tags.width != 3 {
			t.Fatalf("one small dirty line: %d-bit slots, want 3", tags.width)
		}
		// The largest tag+1 below the top bit of the target width, short of
		// maxLine at 64 bits.
		tag := min(uint64(1)<<(width-1)-2, (maxLine-1)/2-1)
		tags.Fill(0, 2*tag+1, 0, false)
		if tags.width != width {
			t.Fatalf("tag %#x: %d-bit slots, want %d", tag, tags.width, width)
		}
		if line, valid, dirty := tags.line(0); line != 4 || !valid || !dirty || !tags.Contains(4) {
			t.Fatalf("widening 3 to %d bits: set 0 decodes to (%d, %v, dirty %v), want (4, true, dirty true)",
				width, line, valid, dirty)
		}
		if line, valid, dirty := tags.line(1); line != 2*tag+1 || !valid || dirty {
			t.Fatalf("widening 3 to %d bits: set 1 decodes to (%d, %v, dirty %v), want (%d, true, dirty false)",
				width, line, valid, dirty, 2*tag+1)
		}
	}
}

// FuzzTADSlots drives random writes through a TAD store with a random set
// count. The first write installs the given tag, and the rest draw tags of
// every magnitude, so the store widens step by step. The first write lands
// on set seed % sets. After each write the written set decodes to its line
// and dirty bit and both neighbouring sets decode as before; widening
// rewrites their raw bits, so the check compares decoded slots. At the end
// every written set still decodes to its last write.
func FuzzTADSlots(f *testing.F) {
	for _, sets := range []uint64{1, 2, 3, 28, 1<<11 + 1, 1 << 19, 1<<20 - 1} {
		f.Add(sets, uint64(1), uint16(64), uint64(0))
	}
	// Tags on each side of every width boundary: tag+1 just below and at
	// the dirty bit of widths 2 to maxSlotBits, the last of which jumps to
	// 64 bits.
	for _, sets := range []uint64{1, 3} {
		for width := 2; width <= maxSlotBits; width++ {
			top := uint64(1) << (width - 1)
			f.Add(sets, uint64(width), uint16(16), top-2)
			f.Add(sets, uint64(width), uint16(16), top-1)
		}
	}
	// A first write at each of the 8 bit shifts within a byte: in 13-bit
	// slots, sets 0 to 7 start at shifts 0, 5, 2, 7, 4, 1, 6 and 3.
	for set := range uint64(8) {
		f.Add(uint64(9), set, uint16(16), uint64(1)<<11)
	}
	f.Fuzz(func(t *testing.T, sets, seed uint64, n uint16, tag uint64) {
		// Up to 2^20 sets covers every slot width.
		sets = sets%(1<<20) + 1
		tag %= (maxLine-1)/sets + 1
		fx := newFixture()
		tags := NewAlloy("fuzz", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
		r := rng.New(seed)
		type decoded struct {
			line         uint64
			valid, dirty bool
		}
		decode := func(set uint64) decoded {
			if set >= sets {
				return decoded{}
			}
			line, valid, dirty := tags.line(set)
			return decoded{line, valid, dirty}
		}
		written := map[uint64]decoded{}
		for i := range n {
			line := r.Uint64n(maxLine) >> r.Intn(59)
			if i == 0 {
				line = tag*sets + seed%sets
				if line >= maxLine {
					line -= sets
				}
			}
			_, set := tags.sets.split(line)
			before, after := decode(set-1), decode(set+1)
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
			want := decoded{line, true, dirty}
			if got := decode(set); got != want || !tags.Contains(line) {
				t.Fatalf("%d sets: set %d decodes to %+v, want %+v", sets, set, got, want)
			}
			if decode(set-1) != before || decode(set+1) != after {
				t.Fatalf("%d sets: writing set %d changed a neighbour", sets, set)
			}
			written[set] = want
		}
		for set, want := range written {
			if got := decode(set); got != want {
				t.Fatalf("%d sets: set %d decodes to %+v after %d writes, want %+v", sets, set, got, n, want)
			}
		}
	})
}
