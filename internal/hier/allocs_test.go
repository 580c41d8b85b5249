package hier

import (
	"runtime"
	"testing"

	"bear/internal/config"
	"bear/internal/trace"
)

// TestSteadyStateAllocs bounds what a whole simulation allocates once warm.
// For every design it runs Rate mcf at 1/256 scale twice after the same
// warm-up, measuring M and then 2M instructions per core, and counts heap
// allocations across Run. The difference is what the extra M instructions
// cost, with Run's fixed allocations (the result record) cancelled out.
//
// The residual is not zero: a freelist or ring grows by one object or one
// doubling whenever the in-flight count reaches a new peak, which comes to
// 15-113 allocations per 800k instructions (0.02-0.14 per 1,000). The
// bound of 1 per 1,000 leaves 7x headroom over that. An allocation per L4
// request would add about 135 per 1,000 on mcf, and even one per core
// yield (a capturing closure rescheduling the core) adds about 6.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("about 10x slower under the race detector; scripts/ci.sh runs it without -race")
	}
	const (
		scale   = 256
		warm    = 50_000
		meas    = 100_000
		perKilo = 1.0 // allowed allocations per 1,000 extra instructions
	)
	run := func(d config.Design, meas uint64) (mallocs, instr uint64) {
		cfg := config.Default(scale).WithDesign(d)
		wl, err := trace.Rate("mcf", cfg.Core.Count, scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(cfg, wl, warm, meas)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunWarm()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := sim.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		return after.Mallocs - before.Mallocs, r.Instructions
	}
	for _, d := range designs {
		a1, i1 := run(d, meas)
		a2, i2 := run(d, 2*meas)
		extra := float64(int64(a2) - int64(a1))
		rate := extra * 1000 / float64(i2-i1)
		t.Logf("%-10v %4.0f allocs over %d extra instructions (%.3f per 1,000)", d, extra, i2-i1, rate)
		if rate > perKilo {
			t.Errorf("%v allocates %.2f times per 1,000 steady-state instructions, bound %v", d, rate, perKilo)
		}
	}
}
