package dramcache

import (
	"testing"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/event"
	"bear/internal/stats"
)

type fixture struct {
	q   *event.Queue
	l4  *dram.Memory
	mem *MainMemory
}

func newFixture() *fixture {
	q := &event.Queue{}
	l4cfg := config.DRAM{
		Channels: 2, Banks: 4, BytesPerCycle: 16, RowBytes: 2048,
		TCAS: 36, TRCD: 36, TRP: 36, TRAS: 144, WriteQHi: 8, WriteQLo: 4,
	}
	memcfg := config.DRAM{
		Channels: 1, Banks: 4, BytesPerCycle: 4, RowBytes: 2048,
		TCAS: 36, TRCD: 36, TRP: 36, TRAS: 144, WriteQHi: 8, WriteQLo: 4,
	}
	f := &fixture{q: q}
	f.l4 = dram.New("l4", l4cfg, q)
	f.mem = NewMainMemory(dram.New("mem", memcfg, q))
	return f
}

func (f *fixture) drain() { f.q.Run(nil) }

// read performs a blocking read and returns the result and completion time.
func read(t *testing.T, f *fixture, c Cache, line uint64) (ReadResult, uint64) {
	t.Helper()
	var res ReadResult
	var at uint64
	done := false
	c.Read(f.q.Now(), 0, line, 0x400, func(now uint64, r ReadResult) {
		res, at, done = r, now, true
	})
	f.drain()
	if !done {
		t.Fatalf("read of line %d never completed", line)
	}
	return res, at
}

func newAlloy(f *fixture, opts AlloyOpts) *Alloy {
	return NewAlloy("test", 56, f.l4, f.mem, Hooks{}, opts)
}

func TestAlloyHitAccounting(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	a.Install(100)
	res, at := read(t, f, a, 100)
	if !res.FromL4 || !res.InL4 {
		t.Fatalf("hit result = %+v", res)
	}
	st := a.Stats()
	if st.ReadHits != 1 || st.Bytes[stats.HitProbe] != 80 {
		t.Fatalf("hit stats = hits=%d bytes=%v", st.ReadHits, st.Bytes)
	}
	if st.TotalBytes() != 80 {
		t.Fatalf("total bytes = %d, want 80", st.TotalBytes())
	}
	// Unloaded latency: tRCD + tCAS + 5-cycle burst.
	if at != 36+36+5 {
		t.Fatalf("hit completed at %d, want 77", at)
	}
}

func TestAlloyMissAccounting(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	res, _ := read(t, f, a, 100)
	if res.FromL4 || !res.InL4 {
		t.Fatalf("miss result = %+v (should have filled)", res)
	}
	st := a.Stats()
	if st.ReadMisses != 1 || st.Fills != 1 {
		t.Fatalf("miss stats: %+v", st)
	}
	if st.Bytes[stats.MissProbe] != 80 || st.Bytes[stats.MissFill] != 80 {
		t.Fatalf("miss bytes = %v", st.Bytes)
	}
	if !a.Contains(100) {
		t.Fatal("missed line was not filled")
	}
	// Second read is now a hit.
	res, _ = read(t, f, a, 100)
	if !res.FromL4 {
		t.Fatal("second read missed")
	}
}

func TestAlloyConflictEviction(t *testing.T) {
	f := newFixture()
	evicted := []uint64{}
	a := NewAlloy("test", 56, f.l4, f.mem, Hooks{OnEvict: func(l uint64) { evicted = append(evicted, l) }}, AlloyOpts{})
	read(t, f, a, 100)
	read(t, f, a, 156) // same set (100 % 56 == 156 % 56)
	if a.Contains(100) {
		t.Fatal("conflicting line survived")
	}
	if len(evicted) != 1 || evicted[0] != 100 {
		t.Fatalf("OnEvict calls = %v, want [100]", evicted)
	}
}

func TestAlloyDirtyVictimWrittenToMemory(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	a.Install(100)
	a.Writeback(f.q.Now(), 0, 100, core.PresUnknown) // make it dirty in L4
	f.drain()
	memWrites := f.mem.D.Stats.Writes
	read(t, f, a, 156) // evicts dirty 100
	if got := f.mem.D.Stats.Writes - memWrites; got != 1 {
		t.Fatalf("dirty victim produced %d memory writes, want 1", got)
	}
}

func TestAlloyBypass(t *testing.T) {
	f := newFixture()
	bab := core.NewBAB(1.0, 1024, 1)
	bab.Naive = true // always bypass
	a := newAlloy(f, AlloyOpts{BAB: bab})
	res, _ := read(t, f, a, 100)
	if res.InL4 {
		t.Fatal("bypassed line reported in L4")
	}
	st := a.Stats()
	if st.Bypasses != 1 || st.Fills != 0 || st.Bytes[stats.MissFill] != 0 {
		t.Fatalf("bypass stats: %+v", st)
	}
	if a.Contains(100) {
		t.Fatal("bypassed line was filled")
	}
}

func TestAlloyWritebackProbeHit(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	a.Install(200)
	a.Writeback(f.q.Now(), 0, 200, core.PresUnknown)
	f.drain()
	st := a.Stats()
	if st.WBHits != 1 || st.Bytes[stats.WBProbe] != 80 || st.Bytes[stats.WBUpdate] != 80 {
		t.Fatalf("wb probe-hit stats: hits=%d bytes=%v", st.WBHits, st.Bytes)
	}
}

func TestAlloyWritebackProbeMiss(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	a.Writeback(f.q.Now(), 0, 200, core.PresUnknown)
	f.drain()
	st := a.Stats()
	if st.WBMisses != 1 || st.Bytes[stats.WBProbe] != 80 || st.Bytes[stats.WBUpdate] != 0 {
		t.Fatalf("wb probe-miss stats: misses=%d bytes=%v", st.WBMisses, st.Bytes)
	}
	if f.mem.D.Stats.Writes != 1 {
		t.Fatalf("wb miss should write memory once, got %d", f.mem.D.Stats.Writes)
	}
}

func TestAlloyDCPPresent(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	a.Install(200)
	a.Writeback(f.q.Now(), 0, 200, core.PresPresent)
	f.drain()
	st := a.Stats()
	if st.Bytes[stats.WBProbe] != 0 || st.Bytes[stats.WBUpdate] != 80 {
		t.Fatalf("DCP-present wb bytes = %v (probe should be skipped)", st.Bytes)
	}
	if st.DCPProbesSaved != 1 || st.WBHits != 1 {
		t.Fatalf("DCP stats: %+v", st)
	}
}

func TestAlloyDCPAbsent(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{})
	a.Writeback(f.q.Now(), 0, 200, core.PresAbsent)
	f.drain()
	st := a.Stats()
	if st.TotalBytes() != 0 {
		t.Fatalf("DCP-absent wb consumed L4 bytes: %v", st.Bytes)
	}
	if f.mem.D.Stats.Writes != 1 {
		t.Fatal("DCP-absent wb did not go to memory")
	}
	if st.DCPProbesSaved != 1 {
		t.Fatalf("DCP stats: %+v", st)
	}
}

func TestAlloyNTCSkipsMissProbe(t *testing.T) {
	f := newFixture()
	ntc := core.NewNTC(8, 8)
	a := newAlloy(f, AlloyOpts{NTC: ntc})
	// Line 100 -> set 44; its row neighbour is set 45. Accessing set 44
	// deposits set 45's tag. Then a read mapping to set 45 but absent is
	// answered by the NTC without a probe.
	a.Install(100)
	read(t, f, a, 100)
	st := a.Stats()
	before := st.Bytes[stats.MissProbe]
	// Line 45+56 = 101? set of 101 = 45. Set 45 is empty (known absent).
	res, _ := read(t, f, a, 101)
	if res.FromL4 {
		t.Fatal("expected miss")
	}
	if st.Bytes[stats.MissProbe] != before {
		t.Fatal("NTC did not skip the miss probe")
	}
	if st.NTCProbesSaved != 1 {
		t.Fatalf("NTCProbesSaved = %d", st.NTCProbesSaved)
	}
	// The line was still filled despite the skipped probe.
	if !a.Contains(101) {
		t.Fatal("fill skipped")
	}
}

func TestAlloyNTCDirtyResidentForcesProbe(t *testing.T) {
	f := newFixture()
	ntc := core.NewNTC(8, 8)
	a := newAlloy(f, AlloyOpts{NTC: ntc})
	a.Install(101) // set 45
	a.Writeback(f.q.Now(), 0, 101, core.PresUnknown)
	f.drain()
	a.Install(100)     // set 44
	read(t, f, a, 100) // deposits set 45 (dirty line 101)
	st := a.Stats()
	before := st.Bytes[stats.MissProbe]
	read(t, f, a, 157) // set 45, != 101 -> miss with dirty resident
	if st.Bytes[stats.MissProbe] == before {
		t.Fatal("probe was skipped despite a dirty resident line")
	}
	// The dirty victim must reach memory.
	if f.mem.D.Stats.Writes == 0 {
		t.Fatal("dirty victim lost")
	}
}

func TestAlloyNTCSquashesParallelAccess(t *testing.T) {
	f := newFixture()
	ntc := core.NewNTC(8, 8)
	mapi := NewMAPI(1, 64)
	a := newAlloy(f, AlloyOpts{NTC: ntc, Predictor: mapi})
	// Train the predictor to predict miss for this PC.
	for i := 0; i < 8; i++ {
		mapi.Update(0, 0x400, false)
	}
	a.Install(100)
	read(t, f, a, 100) // deposits neighbour set 45
	a.Install(101)     // set 45 now holds 101
	// Update the NTC's view of set 45 via sync path: Install does not
	// sync, so deposit again through another access to set 44.
	read(t, f, a, 100)
	memReads := f.mem.D.Stats.Reads
	res, _ := read(t, f, a, 101) // predicted miss, NTC knows present
	if !res.FromL4 {
		t.Fatal("expected hit")
	}
	if f.mem.D.Stats.Reads != memReads {
		t.Fatal("parallel memory access was not squashed")
	}
	if a.Stats().NTCParallelSqsh != 1 {
		t.Fatalf("NTCParallelSqsh = %d", a.Stats().NTCParallelSqsh)
	}
}

func TestAlloyPredictedMissParallelAccessWasted(t *testing.T) {
	f := newFixture()
	mapi := NewMAPI(1, 64)
	a := newAlloy(f, AlloyOpts{Predictor: mapi})
	for i := 0; i < 8; i++ {
		mapi.Update(0, 0x400, false)
	}
	a.Install(100)
	memReads := f.mem.D.Stats.Reads
	res, _ := read(t, f, a, 100)
	if !res.FromL4 {
		t.Fatal("expected hit")
	}
	if f.mem.D.Stats.Reads != memReads+1 {
		t.Fatal("mispredicted hit should waste one parallel memory read")
	}
}

func TestAlloyInclusive(t *testing.T) {
	f := newFixture()
	backInv := []uint64{}
	hooks := Hooks{OnBackInvalidate: func(l uint64) bool {
		backInv = append(backInv, l)
		return true // on-chip copy was dirty
	}}
	bab := core.NewBAB(1.0, 1024, 1)
	bab.Naive = true
	a := NewAlloy("incl", 56, f.l4, f.mem, hooks, AlloyOpts{Inclusive: true, BAB: bab})
	// Inclusive caches must not bypass, even with an aggressive policy.
	res, _ := read(t, f, a, 100)
	if !res.InL4 {
		t.Fatal("inclusive design bypassed a fill")
	}
	// Writebacks need no probe under inclusion.
	a.Writeback(f.q.Now(), 0, 100, core.PresUnknown)
	f.drain()
	st := a.Stats()
	if st.Bytes[stats.WBProbe] != 0 || st.Bytes[stats.WBUpdate] != 80 {
		t.Fatalf("inclusive wb bytes = %v", st.Bytes)
	}
	// Eviction back-invalidates, and the dirty on-chip copy reaches memory.
	memWrites := f.mem.D.Stats.Writes
	read(t, f, a, 156)
	if len(backInv) != 1 || backInv[0] != 100 {
		t.Fatalf("back-invalidates = %v", backInv)
	}
	if f.mem.D.Stats.Writes == memWrites {
		t.Fatal("dirty back-invalidated line never reached memory")
	}
}

func TestBWOptIdealBloat(t *testing.T) {
	f := newFixture()
	a := newAlloy(f, AlloyOpts{Ideal: true})
	read(t, f, a, 100) // miss: free fill
	read(t, f, a, 100) // hit: 64 B
	a.Writeback(f.q.Now(), 0, 100, core.PresUnknown)
	f.drain()
	st := a.Stats()
	if st.BloatFactor() != 1.0 {
		t.Fatalf("BW-Opt bloat = %v, want exactly 1 (%v)", st.BloatFactor(), st.Bytes)
	}
	if st.Bytes[stats.HitProbe] != 64 {
		t.Fatalf("BW-Opt hit bytes = %v", st.Bytes)
	}
}

func TestAlloyLatencySerializedVsParallel(t *testing.T) {
	// A predicted hit that misses pays probe + memory serially; a
	// predicted miss overlaps them.
	lat := func(train bool) uint64 {
		f := newFixture()
		mapi := NewMAPI(1, 64)
		a := newAlloy(f, AlloyOpts{Predictor: mapi})
		if train {
			for i := 0; i < 8; i++ {
				mapi.Update(0, 0x400, false)
			}
		}
		_, at := read(t, f, a, 100)
		return at
	}
	serial := lat(false)  // predicts hit -> serialised
	parallel := lat(true) // predicts miss -> parallel
	if parallel >= serial {
		t.Fatalf("parallel path (%d) not faster than serialised (%d)", parallel, serial)
	}
}

func TestMAPILearning(t *testing.T) {
	p := NewMAPI(2, 64)
	pc := uint64(0x1234)
	for i := 0; i < 10; i++ {
		p.Update(0, pc, false)
	}
	if p.Predict(0, pc) {
		t.Fatal("predictor did not learn misses")
	}
	// Other core's table is independent.
	if !p.Predict(1, pc) {
		t.Fatal("per-core tables not isolated")
	}
	for i := 0; i < 10; i++ {
		p.Update(0, pc, true)
	}
	if !p.Predict(0, pc) {
		t.Fatal("predictor did not re-learn hits")
	}
	if p.Accuracy() <= 0 || p.Accuracy() > 1 {
		t.Fatalf("accuracy = %v", p.Accuracy())
	}
}

func TestMainMemoryMappingSpread(t *testing.T) {
	f := newFixture()
	// Consecutive lines should alternate channels (1 channel in fixture,
	// so use a wider config here).
	m := NewMainMemory(dram.New("m2", config.DRAM{
		Channels: 2, Banks: 8, BytesPerCycle: 4, RowBytes: 2048,
		TCAS: 1, TRCD: 1, TRP: 1, TRAS: 4, WriteQHi: 8, WriteQLo: 4,
	}, f.q))
	ch0, _, _ := m.locate(0)
	ch1, _, _ := m.locate(1)
	if ch0 == ch1 {
		t.Fatal("consecutive lines mapped to the same channel")
	}
	// Lines within a channel share rows for a while (stream locality).
	_, bk0, r0 := m.locate(0)
	_, bk2, r2 := m.locate(2)
	if bk0 != bk2 || r0 != r2 {
		t.Fatal("near lines did not share a row")
	}
}

func TestNoL4Passthrough(t *testing.T) {
	f := newFixture()
	n := NewNoL4(f.mem)
	res, _ := read(t, f, n, 42)
	if res.FromL4 || res.InL4 {
		t.Fatalf("NoL4 result = %+v", res)
	}
	if n.Stats().ReadMisses != 1 {
		t.Fatal("NoL4 miss not counted")
	}
	n.Writeback(f.q.Now(), 0, 42, core.PresUnknown)
	f.drain()
	if f.mem.D.Stats.Writes != 1 {
		t.Fatal("NoL4 writeback lost")
	}
	if n.Contains(42) {
		t.Fatal("NoL4 contains nothing")
	}
}

func TestBuildAllDesigns(t *testing.T) {
	for _, d := range []config.Design{
		config.NoL4, config.Alloy, config.BEAR, config.BWOpt,
		config.LohHill, config.MostlyClean, config.InclAlloy,
		config.TIS, config.Sector,
	} {
		q := &event.Queue{}
		cfg := config.Default(256).WithDesign(d)
		b, err := Build(cfg, q, Hooks{})
		if err != nil {
			t.Fatalf("Build(%v): %v", d, err)
		}
		if b.Cache == nil || b.MemDRAM == nil {
			t.Fatalf("Build(%v) returned incomplete bundle", d)
		}
		if d == config.BEAR && (b.BAB == nil || b.NTC == nil) {
			t.Fatal("BEAR bundle missing policy components")
		}
		if d == config.NoL4 && b.L4DRAM != nil {
			t.Fatal("NoL4 bundle has an L4 DRAM")
		}
	}
}

// TestBuildUseDIP: UseDIP composes the DIP fill policy over LH and TIS and
// is an error for every other design.
func TestBuildUseDIP(t *testing.T) {
	for d := config.NoL4; d <= config.TicToc; d++ {
		cfg := config.Default(256).WithDesign(d)
		cfg.UseDIP = true
		b, err := Build(cfg, &event.Queue{}, Hooks{})
		if d != config.LohHill && d != config.TIS {
			if err == nil {
				t.Errorf("Build(%v) with UseDIP: no error", d)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Build(%v) with UseDIP: %v", d, err)
		}
		if _, ok := b.Cache.(*Controller).fill.(dipFill); !ok {
			t.Errorf("Build(%v) with UseDIP: fill policy %T, want dipFill", d, b.Cache.(*Controller).fill)
		}
	}
}
