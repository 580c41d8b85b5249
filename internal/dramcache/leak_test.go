package dramcache_test

import (
	"errors"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/dramcache"
	"bear/internal/fault"
	"bear/internal/hier"
	"bear/internal/trace"
)

// TestDrainCheckCatchesLeakedPoolObject takes one object from each of the
// package's two freelists, the controller's transactions and main memory's
// victim forwards, and never returns it: the run's -check drain must fail
// with a dramcache invariant naming the pool.
func TestDrainCheckCatchesLeakedPoolObject(t *testing.T) {
	for _, tc := range []struct {
		pool string
		take func(*hier.Sim)
		want string
	}{
		{"txn", func(s *hier.Sim) { dramcache.LeakTxn(s.Bundle.Cache) }, "1 LH transactions leaked"},
		{"fwd", func(s *hier.Sim) { s.Bundle.Mem.VictimFwd(0, 0) }, "1 victim forwards leaked"},
	} {
		t.Run(tc.pool, func(t *testing.T) {
			cfg := config.Default(1024).WithDesign(config.LohHill)
			wl, err := trace.Rate("mcf", cfg.Core.Count, 1024, 1)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := hier.NewSim(cfg, wl, 1000, 2000)
			if err != nil {
				t.Fatal(err)
			}
			sim.Watchdog.Check = true
			tc.take(sim)
			_, err = sim.Run()
			var inv *fault.Invariant
			if !errors.As(err, &inv) || inv.Component != "dramcache" || !strings.Contains(inv.Message, tc.want) {
				t.Fatalf("Run = %v, want a dramcache invariant containing %q", err, tc.want)
			}
		})
	}
}
