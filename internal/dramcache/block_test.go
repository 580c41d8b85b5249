package dramcache

import (
	"testing"

	"bear/internal/core"
	"bear/internal/rng"
	"bear/internal/sram"
	"bear/internal/stats"
)

// The sub-blocked behaviours of blockTags: FBR admission gating,
// whole-page fill accounting (FillLines), partial-page writeback recovery
// (VictimDirtyMask), demand-line fills, and the tag-cache / tag-buffer
// probe economics of the Banshee and TicToc compositions. FuzzBlockTags
// pins the one-line (Tags-In-SRAM) store to a bare sram.Cache.

// TestBansheeFBRAdmissionAndPageFill: a cold page is bypassed until its
// miss counter reaches the FBR threshold (2); admission then fills the
// whole page, charging FillLines x FillBytes of Miss-Fill bandwidth and
// making every line of the page resident.
func TestBansheeFBRAdmissionAndPageFill(t *testing.T) {
	f := newFixture()
	c := NewBanshee("banshee", 256, 8, 2, f.l4, f.mem, Hooks{})

	// First touch: one miss on the page, below threshold -> bypass.
	res, _ := read(t, f, c, 8)
	if res.FromL4 || res.InL4 {
		t.Fatalf("cold page must bypass, got %+v", res)
	}
	if got := c.Stats().Bytes[stats.MissFill]; got != 0 {
		t.Fatalf("bypassed miss charged %d fill bytes, want 0", got)
	}
	if c.Contains(8) {
		t.Fatal("bypassed line must not be resident")
	}

	// Second touch: counter reaches the threshold -> whole-page fill.
	res, _ = read(t, f, c, 8)
	if !res.InL4 {
		t.Fatalf("second miss must admit the page, got %+v", res)
	}
	if got, want := c.Stats().Bytes[stats.MissFill], uint64(8*64); got != want {
		t.Fatalf("page fill charged %d bytes, want %d (FillLines x FillBytes)", got, want)
	}
	for line := uint64(8); line < 16; line++ {
		if !c.Contains(line) {
			t.Fatalf("line %d of the admitted page must be resident", line)
		}
	}
	// The sibling line now hits without re-filling.
	res, _ = read(t, f, c, 13)
	if !res.FromL4 {
		t.Fatal("sibling line of an admitted page must hit")
	}
	if got, want := c.Stats().Bytes[stats.MissFill], uint64(8*64); got != want {
		t.Fatalf("hit re-charged fill bytes: %d, want %d", got, want)
	}
}

// TestBansheeDirtyProbeFlow: a writeback whose page mapping is not in the
// tag buffer pays the dirty-probe read; a buffered mapping settles on chip.
func TestBansheeDirtyProbeFlow(t *testing.T) {
	f := newFixture()
	c := NewBanshee("banshee", 256, 8, 2, f.l4, f.mem, Hooks{})

	// Cold page, unbuffered mapping: the writeback must probe, find the
	// page absent, and forward to memory.
	c.Writeback(f.q.Now(), 0, 200, core.PresUnknown)
	f.drain()
	if got := c.Stats().Bytes[stats.WBProbe]; got != 64 {
		t.Fatalf("unbuffered writeback charged %d probe bytes, want 64", got)
	}
	if got := c.Stats().WBMisses; got != 1 {
		t.Fatalf("WBMisses = %d, want 1", got)
	}

	// Admit a page (two misses); the fill's Sync deposits the mapping in
	// the tag buffer, so a subsequent writeback needs no probe.
	read(t, f, c, 8)
	read(t, f, c, 8)
	before := c.Stats().Bytes[stats.WBProbe]
	c.Writeback(f.q.Now(), 0, 9, core.PresUnknown)
	f.drain()
	if got := c.Stats().Bytes[stats.WBProbe]; got != before {
		t.Fatalf("buffered writeback probed (%d -> %d bytes), want none", before, got)
	}
	if got := c.Stats().WBHits; got != 1 {
		t.Fatalf("WBHits = %d, want 1", got)
	}
}

// TestTicTocDemandFill: a TicToc miss fills only the demand line into the
// page frame — 64 bytes of Miss-Fill — leaving sibling lines absent.
func TestTicTocDemandFill(t *testing.T) {
	f := newFixture()
	c := NewTicToc("tictoc", 128, 8, 2, f.l4, f.mem, Hooks{})

	res, _ := read(t, f, c, 8)
	if res.FromL4 || !res.InL4 {
		t.Fatalf("miss must fill the demand line, got %+v", res)
	}
	if got := c.Stats().Bytes[stats.MissFill]; got != 64 {
		t.Fatalf("demand fill charged %d bytes, want 64", got)
	}
	if !c.Contains(8) {
		t.Fatal("demand line must be resident")
	}
	for line := uint64(9); line < 16; line++ {
		if c.Contains(line) {
			t.Fatalf("sibling line %d must stay absent after a demand fill", line)
		}
	}
}

// TestTicTocTagCacheSkipsProbe: the first miss to a page pays the in-array
// tag check; while the mapping is tag-cached, further misses to the page
// resolve their tag check on chip and skip the probe.
func TestTicTocTagCacheSkipsProbe(t *testing.T) {
	f := newFixture()
	c := NewTicToc("tictoc", 128, 8, 2, f.l4, f.mem, Hooks{})

	read(t, f, c, 8)
	if got := c.Stats().Bytes[stats.MissProbe]; got != 64 {
		t.Fatalf("uncached miss charged %d probe bytes, want 64", got)
	}
	read(t, f, c, 9) // mapping now cached: miss, but no probe
	if got := c.Stats().Bytes[stats.MissProbe]; got != 64 {
		t.Fatalf("tag-cached miss re-probed (total %d bytes), want 64", got)
	}
	if got := c.Stats().NTCProbesSaved; got != 1 {
		t.Fatalf("ProbesSaved = %d, want 1", got)
	}
}

// TestPageVictimDirtyMask: evicting a page recovers exactly its dirty
// lines — VictimReadBytes scales by the dirty-mask popcount, not the page
// size.
func TestPageVictimDirtyMask(t *testing.T) {
	f := newFixture()
	// 16 pages of 8 lines, 2 ways -> 8 page sets.
	c := NewTicToc("tictoc", 128, 8, 2, f.l4, f.mem, Hooks{})

	// Build page 1 (lines 8..15) with three resident lines, two dirty.
	for _, line := range []uint64{8, 9, 10} {
		read(t, f, c, line)
	}
	c.Writeback(f.q.Now(), 0, 8, core.PresUnknown)
	c.Writeback(f.q.Now(), 0, 9, core.PresUnknown)
	f.drain()

	// Pages 9 and 17 share set 1 with page 1 (2 ways): the third distinct
	// page evicts the LRU page 1.
	read(t, f, c, 9*8)
	read(t, f, c, 17*8)
	if c.Contains(8) {
		t.Fatal("page 1 should have been evicted")
	}
	if got, want := c.Stats().Bytes[stats.VictimRead], uint64(2*64); got != want {
		t.Fatalf("victim recovery read %d bytes, want %d (2 dirty lines)", got, want)
	}
}

// TestBlockGeometryPanics: the one geometry check behind NewTIS,
// NewSector, NewBanshee and NewTicToc refuses blocks that are not a power
// of two in 1..64 lines and caches smaller than one block.
func TestBlockGeometryPanics(t *testing.T) {
	f := newFixture()
	for _, g := range []struct{ lines, blockLines uint64 }{
		{256, 0}, {256, 3}, {256, 48}, {256, 128}, {4, 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d lines in %d-line blocks: no panic", g.lines, g.blockLines)
				}
			}()
			NewSector("sc", g.lines, g.blockLines, 2, f.l4, f.mem, Hooks{})
		}()
	}
}

// FuzzBlockTags drives a one-line blockTags, the Tags-In-SRAM tag store,
// and a bare sram.Cache of the same geometry with one random operation
// stream: MRU and LRU fills of absent lines, Touch, WritebackHit, Install
// and Contains. The two must agree on every hit or miss, on every victim's
// line and dirtiness (and the OnEvict hook must name that line), and on
// the frame, set*ways + way, of every resident line.
func FuzzBlockTags(f *testing.F) {
	for _, sets := range []uint64{1, 2, 3, 8, 28} {
		for seed := range uint64(3) {
			f.Add(sets, uint8(4), seed, uint16(512))
		}
	}
	f.Add(uint64(1), uint8(1), uint64(7), uint16(64))
	f.Fuzz(func(t *testing.T, sets uint64, ways uint8, seed uint64, ops uint16) {
		sets = sets%64 + 1
		w := int(ways%16) + 1
		fx := newFixture()
		var evicted []uint64
		c := NewTIS("tis", sets*uint64(w), w, fx.l4, fx.mem,
			Hooks{OnEvict: func(line uint64) { evicted = append(evicted, line) }})
		bt := c.tags.(*blockTags)
		ref := sram.New(sets, w)
		// check compares line's residency, frame and dirtiness.
		check := func(line uint64) {
			t.Helper()
			ln, want := ref.Lookup(line)
			if got := bt.Contains(line); got != want {
				t.Fatalf("line %d: Contains = %v, sram.Cache has it: %v", line, got, want)
			}
			if !want {
				return
			}
			slot, _ := ref.Slot(line)
			frame, ok := bt.frameOf(line)
			if !ok || frame != slot {
				t.Fatalf("line %d: frame %d, %v; sram.Cache has it in slot %d", line, frame, ok, slot)
			}
			if _, dirty := bt.frameBits(frame); (dirty == 1) != ln.Dirty {
				t.Fatalf("line %d: dirty bits %b, sram.Cache says %v", line, dirty, ln.Dirty)
			}
		}
		r := rng.New(seed)
		span := 3 * sets * uint64(w) // enough reuse for hits and evictions
		for range int(ops%4096) + 1 {
			line := r.Uint64n(span)
			switch r.Intn(4) {
			case 0: // a read: Touch on a hit, an MRU or LRU fill on a miss
				_, want := ref.Lookup(line)
				if p := bt.Lookup(0, line); p.Hit != want {
					t.Fatalf("line %d: Lookup hit %v, sram.Cache has it: %v", line, p.Hit, want)
				}
				if want {
					bt.Touch(line)
					ref.Access(line, false)
					break
				}
				mru := r.Bool(0.5)
				evicted = evicted[:0]
				fr := bt.Fill(0, line, 0, mru)
				var ev sram.Eviction
				if mru {
					ev = ref.Fill(line, false, 0)
				} else {
					ev = ref.FillLRU(line, false, 0)
				}
				if fr.VictimValid != ev.Valid || ev.Valid && (fr.VictimLine != ev.Addr || fr.VictimDirty != ev.Dirty) {
					t.Fatalf("fill %d (mru %v): victim %d valid %v dirty %v, sram.Cache evicted %+v",
						line, mru, fr.VictimLine, fr.VictimValid, fr.VictimDirty, ev)
				}
				if ev.Valid != (len(evicted) == 1) || ev.Valid && evicted[0] != ev.Addr {
					t.Fatalf("fill %d: OnEvict saw %v, sram.Cache evicted %+v", line, evicted, ev)
				}
				frame, _ := bt.frameOf(line)
				if fr.Loc != bt.locateLine(frame, 0) || fr.FillLines != 1 {
					t.Fatalf("fill %d: FillResult %+v does not name frame %d", line, fr, frame)
				}
			case 1:
				bt.Touch(line)
				ref.Access(line, false)
			case 2: // the engine only marks resident lines dirty
				if bt.Lookup(0, line).Hit {
					bt.WritebackHit(line)
					ref.SetDirty(line)
				}
			case 3:
				bt.Install(line)
				if _, ok := ref.Lookup(line); !ok {
					ref.Fill(line, false, 0)
				}
			}
			check(line)
		}
		for line := range span {
			check(line)
		}
	})
}
