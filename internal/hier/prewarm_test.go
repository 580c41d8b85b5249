package hier_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"bear/internal/config"
	"bear/internal/exp"
	"bear/internal/hier"
	"bear/internal/trace"
)

// hidePrewarmer wraps a Source so it no longer implements trace.Prewarmer,
// which makes Sim.prewarm leave that core's residency uninstalled.
type hidePrewarmer struct{ trace.Source }

// TestStreamedPrewarmMatchesListOrder pins Sim.prewarm's streamed install
// order to the plainest statement of it: collect each core's warm set into
// a list, then install the lists round-robin by position. Both sims must
// report byte-identical results for every design. MIX1's benchmarks have
// footprints below and above the per-core fair share, so the warm sets
// have unequal lengths and the round-robin runs past the shorter ones.
func TestStreamedPrewarmMatchesListOrder(t *testing.T) {
	const warm, meas = 20000, 50000
	p := exp.Quick()
	for d := config.NoL4; d <= config.TicToc; d++ {
		cfg := config.Default(p.Scale).WithDesign(d)
		run := func(byHand bool) []byte {
			t.Helper()
			wl, err := trace.Mix(1, cfg.Core.Count, p.Scale, p.Seed)
			if err != nil {
				t.Fatal(err)
			}
			gens := wl.Sources
			if byHand {
				wl.Sources = make([]trace.Source, len(gens))
				for i, src := range gens {
					wl.Sources[i] = hidePrewarmer{src}
				}
			}
			sim, err := hier.NewSim(cfg, wl, warm, meas)
			if err != nil {
				t.Fatal(err)
			}
			if byHand {
				installListOrder(sim, cfg, gens)
			}
			r, err := sim.Run()
			if err != nil {
				t.Fatalf("%v: %v", d, err)
			}
			out, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if streamed, listed := run(false), run(true); !bytes.Equal(streamed, listed) {
			t.Errorf("%v: streamed prewarm changed results:\n  streamed: %s\n  listed:   %s",
				d, streamed, listed)
		}
	}
}

// installListOrder is the list-then-interleave prewarm, installing into a
// sim whose own prewarm saw no Prewarmer.
func installListOrder(sim *hier.Sim, cfg config.System, gens []trace.Source) {
	fair := uint64(cfg.CacheBytes) / config.TADBytes / uint64(len(gens))
	lists := make([][]uint64, len(gens))
	for i, src := range gens {
		p := src.(trace.Prewarmer)
		for j := uint64(0); j < p.PrewarmLen(fair); j++ {
			lists[i] = append(lists[i], p.PrewarmLine(j))
		}
	}
	for pos := 0; ; pos++ {
		any := false
		for i := range lists {
			if pos < len(lists[i]) {
				sim.Bundle.Cache.Install(lists[i][pos])
				any = true
			}
		}
		if !any {
			return
		}
	}
}
