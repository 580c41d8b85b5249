package cpu_test

import (
	"errors"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/cpu"
	"bear/internal/fault"
	"bear/internal/hier"
	"bear/internal/trace"
)

// TestDrainCheckCatchesLeakedToken takes one load-completion token from a
// core's freelist and never returns it: the run's -check drain must fail
// with a cpu invariant naming the core.
func TestDrainCheckCatchesLeakedToken(t *testing.T) {
	cfg := config.Default(1024).WithDesign(config.Alloy)
	wl, err := trace.Rate("mcf", cfg.Core.Count, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := hier.NewSim(cfg, wl, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sim.Watchdog.Check = true
	cpu.LeakToken(sim.Cores[3])
	_, err = sim.Run()
	var inv *fault.Invariant
	if !errors.As(err, &inv) || inv.Component != "cpu" || !strings.Contains(inv.Message, "1 core 3 load tokens leaked") {
		t.Fatalf("Run = %v, want a cpu invariant naming core 3's leaked token", err)
	}
}
