package dramcache

import (
	"testing"

	"bear/internal/core"
	"bear/internal/stats"
)

func newLH(f *fixture, opts LHOpts) *LohHill {
	return NewLohHill("lh", 16, 29, f.l4, f.mem, Hooks{}, opts)
}

func TestLHHitAccounting(t *testing.T) {
	f := newFixture()
	l := newLH(f, LHOpts{MissMapLatency: 24})
	l.Install(100)
	res, at := read(t, f, l, 100)
	if !res.FromL4 {
		t.Fatal("expected hit")
	}
	st := l.Stats()
	// Hit: 192 B tags + 64 B data; LRU update writes 64 B.
	if st.Bytes[stats.HitProbe] != 256 {
		t.Fatalf("hit bytes = %v", st.Bytes)
	}
	if st.Bytes[stats.ReplUpdate] != 64 {
		t.Fatalf("LRU update bytes = %v", st.Bytes)
	}
	// MissMap adds its latency before the DRAM access.
	if at < 24+36+36 {
		t.Fatalf("hit latency %d ignores the MissMap", at)
	}
}

func TestLHMissAvoidsProbe(t *testing.T) {
	f := newFixture()
	l := newLH(f, LHOpts{MissMapLatency: 24})
	res, _ := read(t, f, l, 100)
	if res.FromL4 || !res.InL4 {
		t.Fatalf("miss result = %+v", res)
	}
	st := l.Stats()
	if st.Bytes[stats.MissProbe] != 0 {
		t.Fatal("MissMap design issued a miss probe")
	}
	if st.Bytes[stats.MissFill] != 128 {
		t.Fatalf("fill bytes = %v, want 128 (data + tag line)", st.Bytes)
	}
	if !l.Contains(100) {
		t.Fatal("fill lost")
	}
}

func TestLHAssociativityHitRate(t *testing.T) {
	f := newFixture()
	l := newLH(f, LHOpts{MissMapLatency: 24})
	// 20 lines mapping to the same set all fit in 29 ways.
	for i := uint64(0); i < 20; i++ {
		read(t, f, l, 100+i*16)
	}
	for i := uint64(0); i < 20; i++ {
		if !l.Contains(100 + i*16) {
			t.Fatalf("line %d evicted despite 29-way associativity", 100+i*16)
		}
	}
}

func TestLHWritebackWithMissMap(t *testing.T) {
	f := newFixture()
	l := newLH(f, LHOpts{MissMapLatency: 24})
	l.Install(100)
	l.Writeback(f.q.Now(), 0, 100, core.PresUnknown)
	f.drain()
	st := l.Stats()
	// MissMap answers presence: no WB probe, 128 B update.
	if st.Bytes[stats.WBProbe] != 0 || st.Bytes[stats.WBUpdate] != 128 {
		t.Fatalf("LH wb bytes = %v", st.Bytes)
	}
	// Writeback miss goes to memory.
	l.Writeback(f.q.Now(), 0, 999, core.PresUnknown)
	f.drain()
	if f.mem.D.Stats.Writes != 1 {
		t.Fatalf("wb miss writes = %d", f.mem.D.Stats.Writes)
	}
}

func TestMCWritebackProbes(t *testing.T) {
	f := newFixture()
	l := newLH(f, LHOpts{PerfectPredictor: true})
	l.Install(100)
	l.Writeback(f.q.Now(), 0, 100, core.PresUnknown)
	f.drain()
	st := l.Stats()
	// Mostly-Clean has no MissMap: writebacks probe the tag lines.
	if st.Bytes[stats.WBProbe] != 192 {
		t.Fatalf("MC wb probe bytes = %v", st.Bytes)
	}
}

func TestLHDirtyVictim(t *testing.T) {
	f := newFixture()
	l := NewLohHill("lh", 1, 2, f.l4, f.mem, Hooks{}, LHOpts{MissMapLatency: 24})
	read(t, f, l, 1)
	l.Writeback(f.q.Now(), 0, 1, core.PresUnknown)
	f.drain()
	read(t, f, l, 2)
	memWrites := f.mem.D.Stats.Writes
	read(t, f, l, 3) // evicts dirty line 1 (LRU)
	st := l.Stats()
	if st.Bytes[stats.VictimRead] != 64 {
		t.Fatalf("victim read bytes = %v", st.Bytes)
	}
	if f.mem.D.Stats.Writes != memWrites+1 {
		t.Fatal("dirty victim not written to memory")
	}
}

func TestTISHitAndMiss(t *testing.T) {
	f := newFixture()
	c := NewTIS("tis", 128, 4, f.l4, f.mem, Hooks{})
	res, _ := read(t, f, c, 10)
	if res.FromL4 {
		t.Fatal("cold read hit")
	}
	st := c.Stats()
	// TIS: no probes ever; fill is data-only.
	if st.Bytes[stats.MissProbe] != 0 || st.Bytes[stats.MissFill] != 64 {
		t.Fatalf("TIS miss bytes = %v", st.Bytes)
	}
	res, _ = read(t, f, c, 10)
	if !res.FromL4 {
		t.Fatal("second read missed")
	}
	if st.Bytes[stats.HitProbe] != 64 {
		t.Fatalf("TIS hit bytes = %v", st.Bytes)
	}
}

func TestTISWriteback(t *testing.T) {
	f := newFixture()
	c := NewTIS("tis", 128, 4, f.l4, f.mem, Hooks{})
	c.Install(10)
	c.Writeback(f.q.Now(), 0, 10, core.PresUnknown)
	f.drain()
	st := c.Stats()
	if st.Bytes[stats.WBProbe] != 0 || st.Bytes[stats.WBUpdate] != 64 {
		t.Fatalf("TIS wb bytes = %v", st.Bytes)
	}
	c.Writeback(f.q.Now(), 0, 777, core.PresUnknown)
	f.drain()
	if st.WBMisses != 1 || f.mem.D.Stats.Writes != 1 {
		t.Fatal("TIS wb miss mishandled")
	}
}

func TestTISDirtyVictim(t *testing.T) {
	f := newFixture()
	c := NewTIS("tis", 4, 2, f.l4, f.mem, Hooks{}) // 2 sets x 2 ways
	read(t, f, c, 0)
	c.Writeback(f.q.Now(), 0, 0, core.PresUnknown)
	f.drain()
	read(t, f, c, 2)
	memWrites := f.mem.D.Stats.Writes
	read(t, f, c, 4) // same set as 0 and 2; evicts LRU dirty 0
	st := c.Stats()
	if st.Bytes[stats.VictimRead] != 64 {
		t.Fatalf("TIS victim bytes = %v", st.Bytes)
	}
	if f.mem.D.Stats.Writes != memWrites+1 {
		t.Fatal("TIS dirty victim lost")
	}
}

func TestSectorBasicFlow(t *testing.T) {
	f := newFixture()
	// 256 lines, 8-line sectors, 2-way: 16 sector frames.
	c := NewSector("sc", 256, 8, 2, f.l4, f.mem, Hooks{})
	res, _ := read(t, f, c, 0)
	if res.FromL4 {
		t.Fatal("cold hit")
	}
	// Same sector, different line: line fill only, no sector eviction.
	res, _ = read(t, f, c, 1)
	if res.FromL4 {
		t.Fatal("line 1 was never fetched")
	}
	res, _ = read(t, f, c, 0)
	if !res.FromL4 {
		t.Fatal("line 0 lost")
	}
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("sector valid bits wrong")
	}
}

func TestSectorDirtyEvictionPenalty(t *testing.T) {
	f := newFixture()
	// 1 sector set x 1 way: every new sector evicts the previous one.
	c := NewSector("sc", 8, 8, 1, f.l4, f.mem, Hooks{})
	// Touch 4 lines of sector 0 and dirty 3 of them.
	for i := uint64(0); i < 4; i++ {
		read(t, f, c, i)
	}
	for i := uint64(0); i < 3; i++ {
		c.Writeback(f.q.Now(), 0, i, core.PresUnknown)
	}
	f.drain()
	memWrites := f.mem.D.Stats.Writes
	st := c.Stats()
	victimBefore := st.Bytes[stats.VictimRead]
	read(t, f, c, 100) // new sector: evicts sector 0 with 3 dirty lines
	if got := st.Bytes[stats.VictimRead] - victimBefore; got != 3*64 {
		t.Fatalf("sector eviction victim bytes = %d, want %d", got, 3*64)
	}
	if got := f.mem.D.Stats.Writes - memWrites; got != 3 {
		t.Fatalf("sector eviction memory writes = %d, want 3", got)
	}
	if c.Contains(0) || c.Contains(3) {
		t.Fatal("old sector lines still present")
	}
}

func TestSectorWritebackFill(t *testing.T) {
	f := newFixture()
	c := NewSector("sc", 256, 8, 2, f.l4, f.mem, Hooks{})
	read(t, f, c, 0)                               // sector resident
	c.Writeback(f.q.Now(), 0, 3, core.PresUnknown) // same sector, line absent
	f.drain()
	st := c.Stats()
	if st.Bytes[stats.WBFill] != 64 {
		t.Fatalf("sector wb-fill bytes = %v", st.Bytes)
	}
	if !c.Contains(3) {
		t.Fatal("wb-fill did not validate the line")
	}
	// Sector miss: to memory.
	c.Writeback(f.q.Now(), 0, 999, core.PresUnknown)
	f.drain()
	if st.WBMisses != 1 {
		t.Fatalf("sector wb miss count = %d", st.WBMisses)
	}
}

func TestSectorEvictNotifiesHooks(t *testing.T) {
	f := newFixture()
	var evicted []uint64
	c := NewSector("sc", 8, 8, 1, f.l4, f.mem,
		Hooks{OnEvict: func(l uint64) { evicted = append(evicted, l) }})
	read(t, f, c, 0)
	read(t, f, c, 1)
	read(t, f, c, 100) // evict sector 0
	if len(evicted) != 2 {
		t.Fatalf("OnEvict calls = %v, want lines 0 and 1", evicted)
	}
}

func TestInstallIdempotent(t *testing.T) {
	f := newFixture()
	designs := []Cache{
		newAlloy(f, AlloyOpts{}),
		newLH(f, LHOpts{MissMapLatency: 24}),
		NewTIS("tis", 128, 4, f.l4, f.mem, Hooks{}),
		NewSector("sc", 256, 8, 2, f.l4, f.mem, Hooks{}),
	}
	for _, d := range designs {
		d.Install(42)
		d.Install(42) // must not panic or duplicate
		if !d.Contains(42) {
			t.Errorf("%s: Install lost the line", d.Name())
		}
		if d.Stats().TotalBytes() != 0 {
			t.Errorf("%s: Install consumed bandwidth", d.Name())
		}
	}
}

func TestLHDIPThrashProtection(t *testing.T) {
	// A cyclic stream over more lines than a set holds: LRU gets zero
	// hits; DIP (via BIP) retains a stable subset and scores some.
	run := func(useDIP bool) uint64 {
		f := newFixture()
		// One set (use many fills into set 0 of a small cache).
		l := NewLohHill("lh", 64, 4, f.l4, f.mem, Hooks{}, LHOpts{MissMapLatency: 24})
		if useDIP {
			l.fill = newDIPFill()
		}
		hits := uint64(0)
		for lap := 0; lap < 30; lap++ {
			for i := uint64(0); i < 6; i++ { // 6-line cycle > 4 ways
				// All map to set 3, a BIP-sample set under DIP, so the
				// policy needs no training time in this micro-test.
				line := 3 + i*64
				res, _ := read(t, f, l, line)
				if res.FromL4 {
					hits++
				}
			}
		}
		return hits
	}
	lru, dip := run(false), run(true)
	if dip <= lru {
		t.Fatalf("DIP hits (%d) not above LRU hits (%d) under thrash", dip, lru)
	}
}
