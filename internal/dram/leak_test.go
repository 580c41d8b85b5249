package dram_test

import (
	"errors"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/dram"
	"bear/internal/fault"
	"bear/internal/hier"
	"bear/internal/trace"
)

// TestDrainCheckCatchesLeakedRequest takes one request from the L4 DRAM's
// freelist and never returns it: the run's -check drain must fail with a
// dram invariant naming the leak.
func TestDrainCheckCatchesLeakedRequest(t *testing.T) {
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
	dram.LeakRequest(sim.Bundle.L4DRAM)
	_, err = sim.Run()
	var inv *fault.Invariant
	if !errors.As(err, &inv) || inv.Component != "dram" || !strings.Contains(inv.Message, "1 l4 requests leaked") {
		t.Fatalf("Run = %v, want a dram invariant naming the leaked l4 request", err)
	}
}
