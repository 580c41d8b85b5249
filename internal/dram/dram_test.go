package dram

import (
	"testing"
	"testing/quick"

	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/fault"
)

func testCfg() config.DRAM {
	return config.DRAM{
		Channels: 2, Banks: 4, BytesPerCycle: 16, RowBytes: 2048,
		TCAS: 36, TRCD: 36, TRP: 36, TRAS: 144,
		WriteQHi: 8, WriteQLo: 4,
	}
}

func TestColdReadLatency(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	var done uint64
	m.Read(0, 0, 0, 0, 80, func(now uint64) { done = now })
	q.Run(nil)
	// Cold bank: tRCD + tCAS + burst(80/16 = 5).
	want := uint64(36 + 36 + 5)
	if done != want {
		t.Fatalf("cold read completed at %d, want %d", done, want)
	}
	if m.Stats.Reads != 1 || m.Stats.ReadBytes != 80 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	var t1, t2 uint64
	m.Read(0, 0, 0, 5, 64, func(now uint64) { t1 = now })
	q.Run(nil)
	// Same row: row hit.
	m.Read(q.Now(), 0, 0, 5, 64, func(now uint64) { t2 = now })
	q.Run(nil)
	hitLat := t2 - t1
	if hitLat != 36+4 {
		t.Fatalf("row-hit latency = %d, want %d", hitLat, 36+4)
	}
	// Different row on same bank: precharge + activate + CAS, and the
	// precharge must respect tRAS since the first activation.
	start := q.Now()
	var t3 uint64
	m.Read(start, 0, 0, 9, 64, func(now uint64) { t3 = now })
	q.Run(nil)
	if t3-start <= hitLat {
		t.Fatalf("row conflict (%d) not slower than row hit (%d)", t3-start, hitLat)
	}
	if m.Stats.RowHits != 1 || m.Stats.RowMisses != 2 {
		t.Fatalf("row stats = %+v", m.Stats)
	}
}

func TestRowHitsPipelineOnBus(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	// 10 row hits to the same bank should stream at burst rate after the
	// first access, not pay tCAS gaps between bursts.
	var last uint64
	for i := 0; i < 10; i++ {
		m.Read(0, 0, 0, 0, 80, func(now uint64) { last = now })
	}
	q.Run(nil)
	want := uint64(36+36+5) + 9*5
	if last != want {
		t.Fatalf("10 streamed reads finished at %d, want %d", last, want)
	}
}

func TestBankParallelism(t *testing.T) {
	run := func(banks []int) uint64 {
		var q event.Queue
		m := New("t", testCfg(), &q)
		var last uint64
		for i, b := range banks {
			m.Read(0, 0, b, uint64(i+1000), 64, func(now uint64) { last = now })
		}
		q.Run(nil)
		return last
	}
	serial := run([]int{0, 0, 0, 0})  // same bank, different rows each time
	overlap := run([]int{0, 1, 2, 3}) // different banks
	if overlap >= serial {
		t.Fatalf("bank-parallel time %d not better than serial %d", overlap, serial)
	}
}

func TestChannelsIndependent(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	var t0, t1 uint64
	m.Read(0, 0, 0, 0, 64, func(now uint64) { t0 = now })
	m.Read(0, 1, 0, 0, 64, func(now uint64) { t1 = now })
	q.Run(nil)
	if t0 != t1 {
		t.Fatalf("parallel channels completed at %d and %d, want equal", t0, t1)
	}
}

func TestWritesComplete(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	for i := 0; i < 20; i++ {
		m.Write(0, 0, i%4, uint64(i), 80)
	}
	q.Run(nil)
	if m.Stats.Writes != 20 || m.Stats.WriteBytes != 20*80 {
		t.Fatalf("write stats = %+v", m.Stats)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after drain", m.Pending())
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	var q event.Queue
	cfg := testCfg()
	cfg.WriteQHi = 100 // never force a drain
	m := New("t", cfg, &q)
	// Queue a few writes, then a read; the read should not wait for all
	// writes (reads are prioritised).
	var readDone uint64
	for i := 0; i < 6; i++ {
		m.Write(0, 0, 0, uint64(i+10), 80)
	}
	m.Read(0, 0, 1, 0, 64, func(now uint64) { readDone = now })
	q.Run(nil)
	if readDone > 200 {
		t.Fatalf("read waited for the write queue: done at %d", readDone)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	var q event.Queue
	cfg := testCfg()
	m := New("t", cfg, &q)
	// Fill the write queue past the high watermark while a read stream is
	// active; everything must still complete.
	var reads int
	for i := 0; i < 30; i++ {
		m.Write(0, 0, i%4, uint64(i), 80)
	}
	for i := 0; i < 10; i++ {
		m.Read(0, 0, i%4, uint64(i), 80, func(uint64) { reads++ })
	}
	q.Run(nil)
	if reads != 10 || m.Stats.Writes != 30 {
		t.Fatalf("reads=%d writes=%d", reads, m.Stats.Writes)
	}
	// The flood must have grown the write queue to (at least) the high
	// watermark before draining kicked in, and the peak must be observable.
	if m.Stats.MaxWriteQLen < cfg.WriteQHi {
		t.Fatalf("MaxWriteQLen = %d, want >= high watermark %d", m.Stats.MaxWriteQLen, cfg.WriteQHi)
	}
	if m.Stats.MaxReadQLen == 0 {
		t.Fatal("MaxReadQLen = 0 after queued reads")
	}
}

func TestQueueDelayAccounting(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	m.Read(0, 0, 0, 0, 64, nil)
	m.Read(0, 0, 0, 0, 64, nil)
	q.Run(nil)
	if m.Stats.ReadQDelay == 0 {
		t.Fatal("no queue delay recorded")
	}
	if m.Stats.AvgReadLatency() <= 0 {
		t.Fatal("avg read latency not positive")
	}
}

func TestEnqueueValidation(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	for _, r := range []*Request{
		{Channel: 9, Bank: 0, Bytes: 64},
		{Channel: 0, Bank: 99, Bytes: 64},
		{Channel: 0, Bank: 0, Bytes: 0},
	} {
		func() {
			defer func() {
				if inv, ok := recover().(*fault.Invariant); !ok || inv.Component != "dram" {
					t.Errorf("bad request %+v raised %v, want a dram *fault.Invariant", r, inv)
				}
			}()
			m.Enqueue(0, r)
		}()
	}
}

// TestEnqueueInThePastPanics: every L4 and main-memory access reaches the
// bus through Enqueue, so a request timed before the queue's current cycle
// fails there with a typed fault instead of corrupting causality.
func TestEnqueueInThePastPanics(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	q.At(10, func(uint64) {})
	q.Step()
	defer func() {
		inv, ok := recover().(*fault.Invariant)
		if !ok || inv.Component != "dram" {
			t.Fatalf("past-time enqueue raised %v, want a dram *fault.Invariant", inv)
		}
	}()
	m.Read(9, 0, 0, 0, 64, nil)
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		var q event.Queue
		m := New("t", testCfg(), &q)
		var sum uint64
		for i := 0; i < 50; i++ {
			m.Read(uint64(i*3), i%2, i%4, uint64(i%7), 64+16*(i%3), func(now uint64) { sum += now })
			if i%3 == 0 {
				m.Write(uint64(i*3), (i+1)%2, i%4, uint64(i%5), 80)
			}
		}
		q.Run(nil)
		return sum
	}
	if run() != run() {
		t.Fatal("identical request streams produced different schedules")
	}
}

// Property: every read completes, at a time not before enqueue + minimum
// service (tCAS + burst), and the data bus never moves more bytes per cycle
// than its width allows.
func TestServiceBounds(t *testing.T) {
	cfg := testCfg()
	if err := quick.Check(func(reqs []uint16) bool {
		var q event.Queue
		m := New("t", cfg, &q)
		completions := 0
		ok := true
		for i, r := range reqs {
			at := uint64(i)
			bank := int(r) % cfg.Banks
			ch := int(r>>4) % cfg.Channels
			row := uint64(r >> 8)
			m.Read(at, ch, bank, row, 64, func(now uint64) {
				completions++
				if now < at+cfg.TCAS+4 {
					ok = false
				}
			})
			q.RunUntil(at + 1)
		}
		q.Run(nil)
		if completions != len(reqs) {
			return false
		}
		// Bus accounting sanity: busy cycles >= total bytes / width.
		minBusy := uint64(len(reqs)) * 4
		return ok && m.Stats.BusBusy >= minBusy
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSchedule times the enqueue->pick->commit->complete cycle in
// isolation (full L4-style timings incl. tFAW and refresh), so scheduler
// changes can be measured without full-simulation noise. Not part of the
// BENCH_<n>.json snapshots, which track only the end-to-end BenchmarkSim*.
func BenchmarkSchedule(b *testing.B) {
	var q event.Queue
	cfg := testCfg()
	cfg.TFAW = 96
	cfg.TREFI = 24960
	cfg.TRFC = 1120
	m := New("b", cfg, &q)
	noop := func(uint64) {}
	b.ReportAllocs()
	row := uint64(0)
	for i := 0; i < b.N; i++ {
		row++
		for j := 0; j < 8; j++ {
			m.Read(q.Now(), j%2, j%4, row%32, 80, noop)
			m.Write(q.Now(), (j+1)%2, j%4, row%32, 64)
		}
		q.Run(nil)
	}
}

func TestMapper(t *testing.T) {
	mp := Mapper{Channels: 4, Banks: 16}
	seen := map[[2]int]bool{}
	for u := uint64(0); u < 64; u++ {
		ch, bk, _ := mp.Map(u)
		if ch < 0 || ch >= 4 || bk < 0 || bk >= 16 {
			t.Fatalf("Map(%d) out of range: ch=%d bk=%d", u, ch, bk)
		}
		seen[[2]int{ch, bk}] = true
	}
	if len(seen) != 64 {
		t.Fatalf("first 64 units hit %d distinct (ch,bank) pairs, want 64", len(seen))
	}
	// Row increments after cycling all channels and banks.
	_, _, row := mp.Map(64)
	if row != 1 {
		t.Fatalf("unit 64 row = %d, want 1", row)
	}
}

func TestTFAWLimitsActivates(t *testing.T) {
	run := func(tfaw uint64) uint64 {
		var q event.Queue
		cfg := testCfg()
		cfg.TFAW = tfaw
		m := New("t", cfg, &q)
		var last uint64
		// Five row misses to five banks... only 4 banks in testCfg; use
		// repeated conflicts across 4 banks (8 activates).
		for i := 0; i < 8; i++ {
			m.Read(0, 0, i%4, uint64(i+100), 64, func(now uint64) { last = now })
		}
		q.Run(nil)
		return last
	}
	free := run(0)
	limited := run(500) // enormous tFAW: activates gated 500 apart
	if limited <= free {
		t.Fatalf("tFAW had no effect: %d vs %d", limited, free)
	}
	// With tFAW=500, the 5th..8th activates wait for the window: the 8th
	// activate starts no earlier than act#4 + 500.
	if limited < 500 {
		t.Fatalf("8 activates finished at %d despite tFAW=500", limited)
	}
}

func TestRefreshStallsBursts(t *testing.T) {
	var q event.Queue
	cfg := testCfg()
	cfg.TREFI = 1000
	cfg.TRFC = 200
	m := New("t", cfg, &q)
	var at uint64
	// A read issued just before a refresh window must complete after it.
	m.Read(950, 0, 0, 0, 64, func(now uint64) { at = now })
	q.Run(nil)
	// Without refresh it would finish at 950+72+4 = 1026, inside the
	// refresh window [1000, 1200): it must be pushed past 1200.
	if at < 1200 {
		t.Fatalf("burst completed at %d inside a refresh window", at)
	}
}

func TestRefreshDisabledByDefaultCfg(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q) // TREFI == 0
	var at uint64
	m.Read(950, 0, 0, 0, 64, func(now uint64) { at = now })
	q.Run(nil)
	if at != 950+36+36+4 {
		t.Fatalf("no-refresh read completed at %d", at)
	}
}

func TestAlignRefresh(t *testing.T) {
	var q event.Queue
	cfg := testCfg()
	cfg.TREFI = 1000
	cfg.TRFC = 100
	m := New("t", cfg, &q)
	cases := []struct{ in, want uint64 }{
		{0, 0},       // before the first window
		{500, 500},   // mid-gap
		{996, 1100},  // burst of 5 would cross window start
		{1050, 1100}, // inside the window
		{2100, 2100}, // window [2000,2100) just ended
	}
	for _, c := range cases {
		if got := m.alignRefresh(c.in, 5); got != c.want {
			t.Errorf("alignRefresh(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEnqueueCompleteAllocFree(t *testing.T) {
	// The per-access hot path must not allocate once the request freelist
	// and queues are warm: a gigascale sweep issues hundreds of millions of
	// DRAM transactions, and per-request garbage was the simulator's
	// dominant cost. Reads carry a completion callback; writes exercise the
	// write-drain path.
	var q event.Queue
	m := New("t", testCfg(), &q)
	noop := func(uint64) {}

	// Warm: grow the freelist, ring queues and event heap to steady state.
	for i := uint64(0); i < 64; i++ {
		m.Read(q.Now(), int(i%2), int(i%4), i%32, 80, noop)
		m.Write(q.Now(), int((i+1)%2), int(i%4), i%32, 64)
	}
	q.Run(nil)

	row := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		row++
		for i := 0; i < 8; i++ {
			m.Read(q.Now(), i%2, i%4, row%32, 80, noop)
			m.Write(q.Now(), (i+1)%2, i%4, row%32, 64)
		}
		q.Run(nil)
	})
	if allocs != 0 {
		t.Fatalf("warm enqueue->complete allocated %.1f times per run, want 0", allocs)
	}
}

// TestManyBanksPerChannel exercises wide geometries (the Figure 15 sweep
// reaches 512 banks per channel), where the commit bound of one burst per
// bank lets hundreds of requests hold bus windows at once. Every bank gets
// traffic, SelfCheck holds each pick to the reference scan, and the
// invariant sweep checks the commit bound and queue membership.
func TestManyBanksPerChannel(t *testing.T) {
	for _, banks := range []int{65, 128, 512} {
		cfg := testCfg()
		cfg.Banks = banks
		var q event.Queue
		m := New("t", cfg, &q)
		m.SelfCheck = true
		completions := 0
		for b := 0; b < banks; b++ {
			m.Read(uint64(b%7), 0, b, uint64(b), 64, func(uint64) { completions++ })
		}
		if err := m.CheckInvariants(0); err != nil {
			t.Fatalf("banks=%d enqueued: %v", banks, err)
		}
		q.Run(nil)
		if completions != banks {
			t.Fatalf("banks=%d: %d of %d reads completed", banks, completions, banks)
		}
		if err := m.CheckInvariants(0); err != nil {
			t.Fatalf("banks=%d drained: %v", banks, err)
		}
	}
}

// TestWorkCounters pins the scheduler work counters: one cold read is one
// request, one pick and one candidate priced; over a contended stream
// every request is picked at least once, every pick prices between one and
// scanLimit candidates, and the -check reference scan counts nothing.
func TestWorkCounters(t *testing.T) {
	var q event.Queue
	m := New("t", testCfg(), &q)
	m.Read(0, 0, 0, 0, 80, nil)
	q.Run(nil)
	if want := (Work{Requests: 1, Picks: 1, Priced: 1}); m.Work != want {
		t.Fatalf("one cold read: work %+v, want %+v", m.Work, want)
	}

	stream := func(check bool) Work {
		var q event.Queue
		m := New("t", testCfg(), &q)
		m.SelfCheck = check
		for i := range uint64(200) {
			bk, row := int(i%3), i%5
			if i%4 == 0 {
				m.Write(i, 0, bk, row, 64)
			} else {
				m.Read(i, 0, bk, row, 64, nil)
			}
		}
		q.Run(nil)
		return m.Work
	}
	w := stream(false)
	if w.Requests != 200 || w.Picks < w.Requests || w.Priced < w.Picks || w.Priced > w.Picks*scanLimit {
		t.Fatalf("200 contended requests: work %+v", w)
	}
	if wc := stream(true); wc != w {
		t.Fatalf("self-check changed the work counters: %+v, want %+v", wc, w)
	}
}
