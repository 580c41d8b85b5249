package dramcache_test

import (
	"fmt"
	"testing"

	"bear/internal/config"
	"bear/internal/dramcache"
	"bear/internal/hier"
	"bear/internal/trace"
)

// TestNoTADWideningAfterSetup pins the TAD slab and its tag dictionary to
// their set-up state: after hier.NewSim has prewarmed the cache, neither
// the warm-up nor the measured run widens the slots or adds a tag code, so
// the steady state allocates no slab and no dictionary entry.
// It covers the four Alloy-family designs on Rate mcf, lbm and xalanc at
// 1/64 and 1/256, and BEAR on xalanc at paper scale.
func TestNoTADWideningAfterSetup(t *testing.T) {
	type tcase struct {
		design config.Design
		bench  string
		scale  int
	}
	cases := []tcase{{config.BEAR, "xalanc", 1}}
	for _, d := range []config.Design{config.Alloy, config.BEAR, config.BWOpt, config.InclAlloy} {
		for _, bench := range []string{"mcf", "lbm", "xalanc"} {
			for _, scale := range []int{64, 256} {
				cases = append(cases, tcase{d, bench, scale})
			}
		}
	}
	const warm, meas = 20000, 50000
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s/scale=%d", c.design, c.bench, c.scale), func(t *testing.T) {
			cfg := config.Default(c.scale).WithDesign(c.design)
			wl, err := trace.Rate(c.bench, cfg.Core.Count, c.scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := hier.NewSim(cfg, wl, warm, meas)
			if err != nil {
				t.Fatal(err)
			}
			slots, width, codes := dramcache.TADSlab(sim.Bundle.Cache)
			if width == 0 {
				t.Fatal("prewarm left the TAD store empty")
			}
			check := func(phase string) {
				t.Helper()
				s, w, n := dramcache.TADSlab(sim.Bundle.Cache)
				if &s[0] != &slots[0] || w != width {
					t.Fatalf("%s widened the slots from %d to %d bits", phase, width, w)
				}
				if n != codes {
					t.Fatalf("%s changed the tag codes from %d to %d", phase, codes, n)
				}
			}
			sim.RunWarm()
			check("warm-up")
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			check("the measured run")
		})
	}
}
