package hier

import (
	"errors"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/fault"
	"bear/internal/stats"
	"bear/internal/trace"
)

// designs lists every L4 design the simulator builds.
var designs = []config.Design{
	config.NoL4, config.Alloy, config.BEAR, config.BWOpt,
	config.LohHill, config.MostlyClean, config.InclAlloy,
	config.TIS, config.Sector, config.Banshee, config.TicToc,
}

// TestCrossDesignInvariants runs every design over the same small workload
// and asserts the structural relations the paper's analysis relies on.
// Watchdog.Check adds the engine's own checks, among them the post-run
// drain that fails on any object a freelist handed out and never got back.
func TestCrossDesignInvariants(t *testing.T) {
	type outcome struct {
		run *stats.Run
	}
	results := map[config.Design]outcome{}
	for _, d := range designs {
		cfg := config.Default(512).WithDesign(d)
		wl, err := trace.Rate("soplex", cfg.Core.Count, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(cfg, wl, 20000, 50000)
		if err != nil {
			t.Fatal(err)
		}
		sim.Watchdog.Check = true
		r, err := sim.Run()
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		results[d] = outcome{run: r}
	}

	// 1. Every design retires the same instructions.
	want := results[config.Alloy].run.Instructions
	for d, o := range results {
		if o.run.Instructions != want {
			t.Errorf("%v retired %d instructions, want %d", d, o.run.Instructions, want)
		}
	}
	// 2. BW-Opt's bloat factor is exactly 1; everyone else with hits is >= 1.
	for d, o := range results {
		bf := o.run.L4.BloatFactor()
		if d == config.BWOpt && bf != 1.0 {
			t.Errorf("BW-Opt bloat = %v", bf)
		}
		if o.run.L4.ReadHits > 0 && bf < 1.0 {
			t.Errorf("%v bloat %v < 1", d, bf)
		}
	}
	// 3. BW-Opt is at least as fast as the Alloy baseline, and any cache
	// design beats no cache on this cache-friendly workload.
	if results[config.BWOpt].run.Cycles > results[config.Alloy].run.Cycles {
		t.Error("BW-Opt slower than Alloy")
	}
	noL4 := results[config.NoL4].run.Cycles
	for _, d := range []config.Design{config.Alloy, config.BEAR, config.BWOpt, config.TIS} {
		if results[d].run.Cycles > noL4 {
			t.Errorf("%v (%d cycles) slower than no cache (%d)", d, results[d].run.Cycles, noL4)
		}
	}
	// 4. Designs without in-DRAM tags never issue probe traffic.
	for _, d := range []config.Design{config.TIS, config.Sector} {
		l4 := &results[d].run.L4
		if l4.Bytes[stats.MissProbe] != 0 || l4.Bytes[stats.WBProbe] != 0 {
			t.Errorf("%v issued probe bytes: %v", d, l4.Bytes)
		}
	}
	// Banshee's tags live on chip, so reads never probe; its writeback
	// probes are real (tag-buffer misses), so it stays out of the check above.
	if l4 := &results[config.Banshee].run.L4; l4.Bytes[stats.MissProbe] != 0 {
		t.Errorf("Banshee issued miss-probe bytes: %v", l4.Bytes)
	}
	// 5. The inclusive design never bypasses.
	if results[config.InclAlloy].run.L4.Bypasses != 0 {
		t.Error("inclusive design bypassed fills")
	}
	// 6. Loh-Hill's associativity gives it at least the direct-mapped
	// design's hit rate.
	if hrLH, hrAL := results[config.LohHill].run.L4.HitRate(), results[config.Alloy].run.L4.HitRate(); hrLH+0.02 < hrAL {
		t.Errorf("29-way LH hit rate %.3f below direct-mapped %.3f", hrLH, hrAL)
	}
}

// TestWarmBoundaryResetsStats verifies that warm-phase traffic does not
// leak into measured statistics.
func TestWarmBoundaryResetsStats(t *testing.T) {
	cfg := config.Default(512).WithDesign(config.Alloy)
	wl, _ := trace.Rate("wrf", cfg.Core.Count, 512, 1)
	sim, err := NewSim(cfg, wl, 40000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	sim.Watchdog.Check = true
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With warm 4x the measurement, the measured miss count must be far
	// below the total the run would produce unreset.
	if r.Instructions != 8*10000 {
		t.Fatalf("measured instructions = %d", r.Instructions)
	}
	if sim.MarkTime == 0 {
		t.Fatal("warm boundary never fired")
	}
	if r.Cycles == 0 {
		t.Fatal("no measured cycles")
	}
}

// TestStoreOnlyWorkload exercises the posted-store path end to end.
func TestStoreOnlyWorkload(t *testing.T) {
	cfg := config.Default(512).WithDesign(config.BEAR)
	wl, _ := trace.Rate("lbm", cfg.Core.Count, 512, 3) // store-heavy
	sim, err := NewSim(cfg, wl, 5000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	sim.Watchdog.Check = true
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.L3Writebacks == 0 {
		t.Fatal("store-heavy run produced no L3 writebacks")
	}
	if r.L4.WBHits+r.L4.WBMisses == 0 {
		t.Fatal("no writebacks reached the L4")
	}
}

// TestDrainCheckCatchesLeakedMiss takes one miss entry from the
// hierarchy's freelist and never returns it: the run's -check drain must
// fail with a hier invariant naming the leak. The other four freelists have
// the same test in their own packages, where their export_test.go hooks
// reach them.
func TestDrainCheckCatchesLeakedMiss(t *testing.T) {
	cfg := config.Default(1024).WithDesign(config.Alloy)
	wl, err := trace.Rate("mcf", cfg.Core.Count, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, wl, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sim.Watchdog.Check = true
	sim.Hier.getMiss(0, 0, false)
	_, err = sim.Run()
	var inv *fault.Invariant
	if !errors.As(err, &inv) || inv.Component != "hier" || !strings.Contains(inv.Message, "1 miss entries leaked") {
		t.Fatalf("Run = %v, want a hier invariant naming the leaked miss entry", err)
	}
}
