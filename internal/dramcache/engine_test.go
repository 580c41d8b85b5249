package dramcache

import (
	"testing"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/event"
	"bear/internal/stats"
)

// nopDone is a shared no-op read completion so the alloc test's hot loop
// does not itself allocate a closure per access.
func nopDone(uint64, ReadResult) {}

// TestControllerAllocFree asserts the shared transaction engine's per-access
// hot path is allocation-free once its txn pool, the DRAM request freelists
// and the event heap are warm — for every tag-store/policy composition, not
// just the Alloy baseline. A gigascale sweep funnels hundreds of millions of
// accesses through these paths; per-txn garbage would dominate the run.
func TestControllerAllocFree(t *testing.T) {
	builders := []struct {
		name  string
		build func(f *fixture) Cache
	}{
		{"bear", func(f *fixture) Cache {
			return NewAlloy("bear", 56, f.l4, f.mem, Hooks{}, AlloyOpts{
				Predictor: NewMAPI(1, 256),
				BAB:       core.NewBAB(0.9, 256, 1),
				NTC:       core.NewNTC(8, 8),
			})
		}},
		{"upd-bypass", func(f *fixture) Cache {
			return NewAlloy("upd", 56, f.l4, f.mem, Hooks{}, AlloyOpts{
				DBP: core.NewDeadBlock(4096, 2), UpdateBypass: true,
			})
		}},
		{"tis", func(f *fixture) Cache {
			return NewTIS("tis", 128, 4, f.l4, f.mem, Hooks{})
		}},
		{"sector", func(f *fixture) Cache {
			return NewSector("sc", 256, 8, 2, f.l4, f.mem, Hooks{})
		}},
		{"loh-hill", func(f *fixture) Cache {
			return NewLohHill("lh", 16, 29, f.l4, f.mem, Hooks{},
				LHOpts{MissMapLatency: 24})
		}},
		{"banshee", func(f *fixture) Cache {
			return NewBanshee("banshee", 256, 8, 2, f.l4, f.mem, Hooks{})
		}},
		{"tictoc", func(f *fixture) Cache {
			return NewTicToc("tictoc", 256, 8, 2, f.l4, f.mem, Hooks{})
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			f := newFixture()
			c := b.build(f)
			// A working set larger than any of the small caches above, so
			// the loop exercises hits, misses with victims, bypasses/squash
			// paths, and writeback probes in steady state.
			const lines = 1024
			access := func(base uint64) {
				for i := uint64(0); i < 64; i++ {
					line := (base + i*17) % lines
					c.Read(f.q.Now(), 0, line, 0x400+line<<3, nopDone)
					if i%4 == 0 {
						c.Writeback(f.q.Now(), 0, line, core.PresUnknown)
					}
				}
				f.drain()
			}
			for w := uint64(0); w < 32; w++ { // warm pools to steady state
				access(w * 64)
			}
			base := uint64(0)
			allocs := testing.AllocsPerRun(100, func() {
				base += 64
				access(base)
			})
			if allocs != 0 {
				t.Fatalf("%s: warm access path allocated %.1f times per run, want 0",
					b.name, allocs)
			}
			if n := c.OutstandingTxns(); n != 0 {
				t.Fatalf("%s: %d transactions leaked after drain", b.name, n)
			}
		})
	}
}

// TestBytesConserved is the byte-conservation oracle behind the bloat
// decomposition: every byte the DRAM-cache bus moves is charged to exactly
// one bloat category, so once the queue drains the categories sum to the
// L4 DRAM's own read and write byte counts, for every design Build wires
// (and Alloy under writeback-allocate, the probed Writeback Fill path).
// The stream mixes reads over a working set twice the cache (hits, misses
// with dirty victims) with writebacks of unknown and of known presence
// (writeback probes, and the DCP-settled updates, fills and forwards).
func TestBytesConserved(t *testing.T) {
	type tc struct {
		name string
		cfg  config.System
	}
	var cases []tc
	for _, d := range []config.Design{
		config.NoL4, config.Alloy, config.BEAR, config.BWOpt,
		config.LohHill, config.MostlyClean, config.InclAlloy,
		config.TIS, config.Sector, config.Banshee, config.TicToc,
	} {
		cases = append(cases, tc{d.String(), config.Default(4096).WithDesign(d)})
	}
	wbAlloc := config.Default(4096).WithDesign(config.Alloy)
	wbAlloc.WBAllocate = true
	cases = append(cases, tc{"Alloy-WBAllocate", wbAlloc})

	charged := map[stats.Category]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := &event.Queue{}
			b, err := Build(tc.cfg, q, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			c := b.Cache
			lines := 2 * uint64(tc.cfg.CacheBytes) / config.LineBytes
			x := uint64(1)
			for i := 0; i < 16*1024; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				line := (x >> 33) % lines
				c.Read(q.Now(), 0, line, 0x400+(line&63)<<3, nopDone)
				switch i % 4 {
				case 1:
					c.Writeback(q.Now(), 0, line, core.PresUnknown)
				case 3:
					// A neighbour: often absent, or a free fill into a
					// resident sector or page.
					wb := line ^ 1
					pres := core.PresAbsent
					if c.Contains(wb) {
						pres = core.PresPresent
					}
					c.Writeback(q.Now(), 0, wb, pres)
				}
				if i%64 == 63 {
					q.Run(nil)
				}
			}
			q.Run(nil)

			st := c.Stats()
			if tc.cfg.Design == config.NoL4 {
				if st.TotalBytes() != 0 || b.L4DRAM != nil {
					t.Fatalf("NoL4 charged %v bytes (L4 DRAM %v)", st.Bytes, b.L4DRAM)
				}
				return
			}
			if st.ReadHits == 0 || st.ReadMisses == 0 {
				t.Fatalf("stream missed a path: %d hits, %d misses", st.ReadHits, st.ReadMisses)
			}
			moved := b.L4DRAM.Stats.ReadBytes + b.L4DRAM.Stats.WriteBytes
			if got := st.TotalBytes(); got != moved {
				t.Errorf("categories sum to %d bytes, L4 bus moved %d (by category: %v)", got, moved, st.Bytes)
			}
			for _, cat := range stats.Categories() {
				if st.Bytes[cat] > 0 {
					charged[cat] = true
				}
			}
		})
	}
	for _, cat := range stats.Categories() {
		if !charged[cat] {
			t.Errorf("no design charged %v: the stream leaves a transfer path unchecked", cat)
		}
	}
}

// TestUpdFillSampling pins the update-bypass policy's contract: the
// status-bit write (OnHit == true) is paid at most once per fill and only in
// sampled sets, and only sampled sets train the predictor.
func TestUpdFillSampling(t *testing.T) {
	d := core.NewDeadBlock(64, 2)
	f := newUpdFill(d, 128)

	if !f.sampled(0) || !f.sampled(64) || f.sampled(1) || f.sampled(63) {
		t.Fatal("sampling mask should select sets 0 mod 64")
	}

	// Sampled set: first reuse pays the update, later reuses do not.
	f.OnFill(0, 0, 0x40, false)
	if !f.OnHit(0) {
		t.Error("first hit in a sampled set must write the status bit")
	}
	if f.OnHit(0) {
		t.Error("second hit must not write again")
	}

	// Non-sampled set: reuse is tracked but never written back.
	f.OnFill(1, 0, 0x48, false)
	if f.OnHit(1) {
		t.Error("non-sampled set must never pay the status update")
	}

	// Eviction from a sampled set trains; from a non-sampled set it must
	// not (its reuse bit was never architecturally written back).
	before := d.Trainings
	f.OnFill(0, 0, 0x50, true)
	if d.Trainings != before+1 {
		t.Error("sampled-set eviction did not train the predictor")
	}
	f.OnFill(1, 0, 0x58, true)
	if d.Trainings != before+1 {
		t.Error("non-sampled-set eviction trained the predictor")
	}

	// The bypass decision itself applies everywhere: train a signature dead
	// and both sampled and non-sampled fills from it bypass.
	sig := d.Signature(0x99)
	for i := 0; i < 4; i++ {
		d.Train(sig, false)
	}
	if !f.ShouldBypass(7, 0, 0x99) {
		t.Error("learned dead signature should bypass in any set")
	}
}
