package hier

import (
	"errors"
	"reflect"
	"testing"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/cpu"
	"bear/internal/dramcache"
	"bear/internal/event"
	"bear/internal/fault"
	"bear/internal/stats"
	"bear/internal/trace"
)

// blackHole is an L4 that accepts reads and never answers them: every
// core's loads hang forever, modelling a wedged engine. With events still
// flowing it is a livelock; with the queue empty it is a deadlock.
type blackHole struct{ st stats.L4 }

func (b *blackHole) Name() string { return "blackhole" }
func (b *blackHole) Read(now uint64, coreID int, line, pc uint64, done func(uint64, dramcache.ReadResult)) {
}
func (b *blackHole) Writeback(now uint64, coreID int, line uint64, pres core.Presence) {}
func (b *blackHole) Contains(line uint64) bool                                         { return false }
func (b *blackHole) Install(lines ...uint64)                                           {}
func (b *blackHole) Prewarm([][]trace.Run, uint64)                                     {}
func (b *blackHole) Stats() *stats.L4                                                  { return &b.st }
func (b *blackHole) OutstandingTxns() int                                              { return 0 }

// wedgedSim builds a real simulation, then swaps its L4 for a blackHole.
// With heartbeat set, a self-rescheduling event keeps the queue non-empty
// forever, so the wedge presents as a livelock rather than a deadlock.
func wedgedSim(t *testing.T, heartbeat bool) *Sim {
	t.Helper()
	cfg := config.Default(512)
	wl, err := trace.Rate("soplex", cfg.Core.Count, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, wl, 20000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	hole := &blackHole{}
	sim.Hier.AttachL4(hole)
	sim.Bundle.Cache = hole
	if heartbeat {
		var tick event.Func
		tick = func(now uint64) { sim.Q.After(100, tick) }
		sim.Q.After(100, tick)
	}
	return sim
}

// TestWatchdogStall pins the livelock monitor: events keep firing but no
// instruction retires, so Run must fail with a deterministic stall
// diagnosis instead of spinning forever.
func TestWatchdogStall(t *testing.T) {
	run := func() error {
		sim := wedgedSim(t, true)
		sim.Watchdog = Watchdog{StallCycles: 50_000, CheckEvery: 64}
		_, err := sim.Run()
		return err
	}
	err := run()
	var wd *fault.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("Run = %v, want *fault.WatchdogError", err)
	}
	if wd.Kind != fault.WatchdogStall {
		t.Errorf("Kind = %v, want %v", wd.Kind, fault.WatchdogStall)
	}
	if wd.Workload == "" || wd.Design != "blackhole" {
		t.Errorf("diagnosis missing identity: %+v", wd)
	}
	// The monitor samples at fixed event-count epochs, so the wedge must
	// trip at the same cycle with the same message on every run.
	if err2 := run(); err2.Error() != err.Error() {
		t.Errorf("stall diagnosis not deterministic:\n  first:  %v\n  second: %v", err, err2)
	}
}

// TestWatchdogDeadlock pins the empty-queue case: cores still unfinished
// with nothing scheduled is now a typed watchdog error.
func TestWatchdogDeadlock(t *testing.T) {
	sim := wedgedSim(t, false)
	_, err := sim.Run()
	var wd *fault.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("Run = %v, want *fault.WatchdogError", err)
	}
	if wd.Kind != fault.WatchdogDeadlock {
		t.Errorf("Kind = %v, want %v", wd.Kind, fault.WatchdogDeadlock)
	}
	if wd.Limit != uint64(len(sim.Cores)) {
		t.Errorf("deadlock reports %d unfinished cores, want %d", wd.Limit, len(sim.Cores))
	}
}

// TestWatchdogCycleBudget pins the runaway monitor: a healthy simulation
// given an absurdly small cycle budget must stop with a budget error, not
// run to completion.
func TestWatchdogCycleBudget(t *testing.T) {
	cfg := config.Default(512)
	wl, err := trace.Rate("soplex", cfg.Core.Count, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, wl, 20000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	sim.Watchdog = Watchdog{MaxCycles: 1000, CheckEvery: 64}
	_, err = sim.Run()
	var wd *fault.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("Run = %v, want *fault.WatchdogError", err)
	}
	if wd.Kind != fault.WatchdogCycleBudget {
		t.Errorf("Kind = %v, want %v", wd.Kind, fault.WatchdogCycleBudget)
	}
	if wd.Cycle <= wd.Limit {
		t.Errorf("tripped at cycle %d with limit %d", wd.Cycle, wd.Limit)
	}
}

// TestCheckModePreservesResults proves the -check contract: the invariant
// epochs and the post-run drain must be pure observers, leaving every
// measured number identical.
func TestCheckModePreservesResults(t *testing.T) {
	run := func(check bool) *stats.Run {
		t.Helper()
		cfg := config.Default(512).WithDesign(config.BEAR)
		wl, err := trace.Rate("soplex", cfg.Core.Count, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(cfg, wl, 20000, 50000)
		if err != nil {
			t.Fatal(err)
		}
		sim.Watchdog.Check = check
		r, err := sim.Run()
		if err != nil {
			t.Fatalf("check=%v: %v", check, err)
		}
		return r
	}
	plain, checked := run(false), run(true)
	if !reflect.DeepEqual(plain, checked) {
		t.Errorf("-check changed results:\n  plain:   %+v\n  checked: %+v", plain, checked)
	}
}

// TestCheckPassesAcrossDesigns runs the invariant epochs over every design:
// a healthy simulation must never trip them.
func TestCheckPassesAcrossDesigns(t *testing.T) {
	for _, d := range []config.Design{
		config.NoL4, config.Alloy, config.BEAR, config.BWOpt,
		config.LohHill, config.MostlyClean, config.InclAlloy,
		config.TIS, config.Sector,
	} {
		cfg := config.Default(512).WithDesign(d)
		wl, err := trace.Rate("omnetpp", cfg.Core.Count, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(cfg, wl, 20000, 50000)
		if err != nil {
			t.Fatal(err)
		}
		sim.Watchdog = Watchdog{Check: true, CheckEvery: 256}
		if _, err := sim.Run(); err != nil {
			t.Errorf("%v: healthy run tripped -check: %v", d, err)
		}
	}
}

// TestNewSimRejectsSlowHits: a hit latency at cpu.SyncLimit breaks the
// cores' assumption that an on-chip hit completes before it could be the
// oldest load of a full window, so NewSim refuses it with a typed error;
// one cycle less is accepted.
func TestNewSimRejectsSlowHits(t *testing.T) {
	for _, tc := range []struct {
		level string
		lat   func(*config.System) *uint64
	}{
		{"L1", func(c *config.System) *uint64 { return &c.L1.Latency }},
		{"L2", func(c *config.System) *uint64 { return &c.L2.Latency }},
		{"L3", func(c *config.System) *uint64 { return &c.L3.Latency }},
	} {
		cfg := config.Default(1024)
		limit := cpu.SyncLimit(cfg.Core)
		wl, err := trace.Rate("mcf", cfg.Core.Count, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		*tc.lat(&cfg) = limit - 1
		if _, err := NewSim(cfg, wl, 10, 10); err != nil {
			t.Fatalf("%s latency %d: %v", tc.level, limit-1, err)
		}
		*tc.lat(&cfg) = limit
		_, err = NewSim(cfg, wl, 10, 10)
		var hl *HitLatencyError
		if !errors.As(err, &hl) || *hl != (HitLatencyError{Level: tc.level, Latency: limit, Limit: limit}) {
			t.Fatalf("%s latency %d: NewSim = %v, want a HitLatencyError", tc.level, limit, err)
		}
	}
}
