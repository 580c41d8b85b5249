package dramcache

import (
	"fmt"
	"math/bits"
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

// TestTADSlotWidth pins the slot width to the tags installed: none for an
// empty store, 5 bits for xalanc at paper scale (10 tags), 6 for mcf at
// 1/64 (19 tags), 5 for lbm at 1/64 (11 tags), and 2 for a single set
// holding the highest line, whose tag is the largest there is.
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
		bench       string
		scale       int
		tags, width uint64
	}{
		{"xalanc", 1, 10, 5},
		{"mcf", 64, 19, 6},
		{"lbm", 64, 11, 5},
	} {
		cfg := config.Default(c.scale)
		wl, err := trace.Rate(c.bench, cfg.Core.Count, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctl := NewAlloy(c.bench, cfg.AlloySets(), fx.l4, fx.mem, Hooks{}, AlloyOpts{})
		ctl.Prewarm(warmRuns(cfg, wl))
		tags := ctl.tags.(*tadTags)
		if got := uint64(len(tags.tags) - 1); got != c.tags || tags.width != c.width {
			t.Errorf("%s at 1/%d: prewarm leaves %d tags in %d-bit slots, want %d in %d",
				c.bench, c.scale, got, tags.width, c.tags, c.width)
		}
	}

	one := NewAlloy("one", 1, fx.l4, fx.mem, Hooks{}, AlloyOpts{})
	one.Install(maxLine - 1)
	if got := one.tags.(*tadTags).width; got != 2 {
		t.Errorf("one set holding line maxLine-1: %d-bit slots, want 2", got)
	}
}

// TestTADWideningKeepsDirtyLine holds a dirty line in set 0 of a 1024-set
// store and fills the other sets with a distinct tag each, which widens the
// slots a bit at a time from 2 to 12 bits: after each widening the line
// must still be resident and dirty. A second store renumbers the code of a
// dirty line: the code space fills while most tags are dead, so widen
// drops them and renumbers the live codes without growing the width.
func TestTADWideningKeepsDirtyLine(t *testing.T) {
	fx := newFixture()
	check := func(tags *tadTags, set, want uint64, wantDirty bool, when string) {
		t.Helper()
		if line, valid, dirty := tags.line(set); line != want || !valid || dirty != wantDirty || !tags.Contains(want) {
			t.Fatalf("%s: set %d decodes to (%d, %v, dirty %v), want (%d, true, dirty %v)",
				when, set, line, valid, dirty, want, wantDirty)
		}
	}

	const sets = 1 << 10
	tags := NewAlloy("widen", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
	tags.WritebackFill(0, 5*sets) // set 0, tag 5
	width := tags.width
	if width != 2 {
		t.Fatalf("one dirty line: %d-bit slots, want 2", width)
	}
	for set := uint64(1); set < sets; set++ {
		tags.Fill(0, (set+100)*sets+set, 0, false)
		if tags.width != width {
			if tags.width != width+1 {
				t.Fatalf("tag %d: slots widened from %d to %d bits, want one bit", set+100, width, tags.width)
			}
			width = tags.width
			check(tags, 0, 5*sets, true, fmt.Sprintf("widening to %d bits", width))
		}
	}
	if width != 12 {
		t.Fatalf("%d live tags: %d-bit slots, want 12", sets, width)
	}
	for set := uint64(1); set < sets; set++ {
		check(tags, set, (set+100)*sets+set, false, "after the last widening")
	}

	// Sets 0 to 6 take tags 10 to 16, codes 1 to 7, which fill the 4-bit
	// code space; set 1's line is dirty. Tag 16 then overwrites sets 0, 2,
	// 3 and 4, so only codes 2, 6 and 7 stay live, and a new tag in set 7
	// finds the space full: widen keeps 4 bits (3 live codes fill less
	// than half of 7) and renumbers codes 2, 6 and 7 to 1, 2 and 3.
	const small = 8
	tags = NewAlloy("renumber", small, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
	for set := range uint64(7) {
		line := (10+set)*small + set
		if set == 1 {
			tags.WritebackFill(0, line)
		} else {
			tags.Fill(0, line, 0, false)
		}
	}
	for _, set := range []uint64{0, 2, 3, 4} {
		tags.Fill(0, 16*small+set, 0, false)
	}
	if tags.width != 4 || len(tags.tags) != 8 {
		t.Fatalf("7 tags: %d codes in %d-bit slots, want 7 in 4", len(tags.tags)-1, tags.width)
	}
	tags.Fill(0, 99*small+7, 0, false)
	if tags.width != 4 || len(tags.tags) != 5 {
		t.Fatalf("3 live tags and a new one: %d codes in %d-bit slots, want 4 in 4", len(tags.tags)-1, tags.width)
	}
	if w := tags.slot(1); w != 1|tags.dirty {
		t.Fatalf("set 1's slot is %#x after renumbering, want code 1 and the dirty bit", w)
	}
	check(tags, 1, 11*small+1, true, "renumbering")
	check(tags, 5, 15*small+5, false, "renumbering")
	check(tags, 7, 99*small+7, false, "renumbering")
	for _, set := range []uint64{0, 2, 3, 4, 6} {
		check(tags, set, 16*small+set, false, "renumbering")
	}
}

// liveTags counts the distinct tags the store's sets hold.
func liveTags(tags *tadTags) uint64 {
	seen := map[uint64]bool{}
	for set := range tags.sets.n {
		if line, valid, _ := tags.line(set); valid {
			seen[line/tags.sets.n] = true
		}
	}
	return uint64(len(seen))
}

// checkDictionary checks that the dictionary and its index agree and that
// every code fits below the dirty bit.
func checkDictionary(t *testing.T, tags *tadTags) {
	t.Helper()
	if tags.tags[0] != ^uint64(0) {
		t.Fatalf("code 0 holds tag %d, want the sentinel", tags.tags[0])
	}
	if n := uint64(len(tags.tags)); n > max(tags.dirty, 1) {
		t.Fatalf("%d codes in %d-bit slots", n-1, tags.width)
	}
	if len(tags.codes) != len(tags.tags)-1 {
		t.Fatalf("%d tags indexed, %d in the dictionary", len(tags.codes), len(tags.tags)-1)
	}
	for c, q := range tags.tags[1:] {
		if tags.codes[q] != uint64(c+1) {
			t.Fatalf("tag %d has code %d, indexed as %d", q, c+1, tags.codes[q])
		}
	}
}

// TestTADDictionaryBounded feeds small stores 100 times more distinct,
// far-apart tags than they have sets, so the code space fills again and
// again. The dictionary must stay bounded by the set count: the width never
// passes bits.Len64(2*sets)+1, and every widen leaves the code space at
// most 4 x the live tags and about half of it free. A widen also drops
// every dead code: the write that ran it leaves at most one more code than
// live tags (the victim it evicted may have held its tag's last line).
func TestTADDictionaryBounded(t *testing.T) {
	fx := newFixture()
	for _, sets := range []uint64{1, 2, 7, 16, 28, 100} {
		tags := NewAlloy("bounded", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
		r := rng.New(sets)
		maxWidth := uint64(bits.Len64(2*sets)) + 1
		widens := 0
		for i := range 100 * sets {
			slab := &tags.slots[0]
			line := r.Uint64n(maxLine)
			if i%2 == 0 {
				tags.Fill(0, line, 0, false)
			} else {
				tags.WritebackFill(0, line)
			}
			checkDictionary(t, tags)
			if tags.width > maxWidth {
				t.Fatalf("%d sets: %d-bit slots, want at most %d", sets, tags.width, maxWidth)
			}
			if &tags.slots[0] == slab {
				continue // no widen: the tag took a free code
			}
			widens++
			live := liveTags(tags)
			codes := uint64(len(tags.tags) - 1)
			if codes > live+1 {
				t.Fatalf("%d sets, write %d: widen kept %d codes for %d live tags", sets, i, codes, live)
			}
			if tags.dirty > 4*live {
				t.Fatalf("%d sets, write %d: %d-bit slots for %d live tags", sets, i, tags.width, live)
			}
			if free := tags.dirty - 1 - codes; free+1 < tags.dirty/2 {
				t.Fatalf("%d sets, write %d: widen left %d of %d codes free", sets, i, free, tags.dirty-1)
			}
		}
		if widens < 10 {
			t.Fatalf("%d sets: %d widens in %d writes; the code space did not fill", sets, widens, 100*sets)
		}
	}
}

// FuzzTADSlots drives random writes through a TAD store with a random set
// count. Half the writes draw their tag from a small pool, so codes are
// reused, and half draw lines of every magnitude, so the code space fills,
// widens and drops dead codes. After each write the written set decodes to
// its line and dirty bit, both neighbouring sets decode as before, and the
// dictionary is consistent and within its bound; widening and renumbering
// rewrite the raw bits, so the check compares decoded slots. At the end
// every written set still decodes to its last write.
func FuzzTADSlots(f *testing.F) {
	for _, sets := range []uint64{1, 2, 3, 28, 1<<11 + 1, 1 << 19, 1<<20 - 1} {
		f.Add(sets, uint64(1), uint16(64), uint8(3))
	}
	// Pools of 2^k - 1, 2^k and 2^k + 1 tags, on each side of every
	// code-space boundary from 2 to 9 bits, in stores with fewer sets than
	// the pool, so dead codes pile up, and with more. The pool parameter is
	// the pool size less one.
	pools := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256}
	for _, sets := range []uint64{1, 3, 28, 64, 1000, 1<<12 + 1} {
		for _, pool := range pools {
			for seed := range uint64(2) {
				f.Add(sets, seed, uint16(512), uint8(pool-1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, sets, seed uint64, n uint16, pool uint8) {
		// Up to 2^20 sets covers every slot width to 23 bits.
		sets = sets%(1<<20) + 1
		fx := newFixture()
		tags := NewAlloy("fuzz", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{}).tags.(*tadTags)
		r := rng.New(seed)
		quotients := make([]uint64, int(pool)+1)
		for i := range quotients {
			quotients[i] = r.Uint64n((maxLine-1)/sets + 1)
		}
		maxWidth := uint64(bits.Len64(2*sets)) + 1
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
		for range n {
			line := r.Uint64n(maxLine) >> r.Intn(59)
			if r.Bool(0.5) {
				line = min(quotients[r.Intn(len(quotients))]*sets+r.Uint64n(sets), maxLine-1)
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
			checkDictionary(t, tags)
			if tags.width > maxWidth {
				t.Fatalf("%d sets: %d-bit slots, want at most %d", sets, tags.width, maxWidth)
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
