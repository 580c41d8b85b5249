package hier_test

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestStreamedPrewarmMatchesListOrder pins Sim.prewarm's run install
// (Cache.Prewarm) to the plainest statement of it: expand each core's warm
// runs into a list, then install the lists round-robin by position, one
// line per call. For every design, on a Rate and a MIX workload, both L4s
// must hold the same warm lines, and a short run of each must report the
// same result digest. MIX1's benchmarks have footprints below and above
// the per-core fair share, so the warm sets have unequal lengths and the
// round-robin runs past exhausted cores.
func TestStreamedPrewarmMatchesListOrder(t *testing.T) {
	const warm, meas = 20000, 50000
	p := exp.Quick()
	workloads := []struct {
		name string
		make func(cores int) (trace.Workload, error)
	}{
		{"rate-mcf", func(cores int) (trace.Workload, error) { return trace.Rate("mcf", cores, p.Scale, p.Seed) }},
		{"mix1", func(cores int) (trace.Workload, error) { return trace.Mix(1, cores, p.Scale, p.Seed) }},
	}
	for _, w := range workloads {
		for d := config.NoL4; d <= config.TicToc; d++ {
			cfg := config.Default(p.Scale).WithDesign(d)
			build := func(byHand bool) (*hier.Sim, [][]uint64) {
				t.Helper()
				wl, err := w.make(cfg.Core.Count)
				if err != nil {
					t.Fatal(err)
				}
				lists := warmLists(cfg, wl.Sources)
				if byHand {
					for i, src := range wl.Sources {
						wl.Sources[i] = hidePrewarmer{src}
					}
				}
				sim, err := hier.NewSim(cfg, wl, warm, meas)
				if err != nil {
					t.Fatal(err)
				}
				if byHand {
					installRoundRobin(sim, lists)
				}
				return sim, lists
			}
			chunked, lists := build(false)
			listed, _ := build(true)
			if w.name == "mix1" && d == config.Alloy {
				checkUneven(t, lists)
			}
			for i, list := range lists {
				for _, line := range list {
					if got, want := chunked.Bundle.Cache.Contains(line), listed.Bundle.Cache.Contains(line); got != want {
						t.Fatalf("%s %v: core %d warm line %d: chunked Contains = %v, round-robin %v",
							w.name, d, i, line, got, want)
					}
				}
			}
			if a, b := runDigest(t, chunked), runDigest(t, listed); a != b {
				t.Errorf("%s %v: chunked prewarm changed the result digest: %s, round-robin %s", w.name, d, a, b)
			}
		}
	}
}

// warmLists collects each core's warm set as Sim.prewarm sizes it, expanded
// from its runs line by line.
func warmLists(cfg config.System, srcs []trace.Source) [][]uint64 {
	fair := uint64(cfg.CacheBytes) / config.TADBytes / uint64(len(srcs))
	lists := make([][]uint64, len(srcs))
	for i, src := range srcs {
		for _, r := range src.(trace.Prewarmer).PrewarmRuns(fair) {
			for k := range r.Len {
				lists[i] = append(lists[i], r.First+k)
			}
		}
	}
	return lists
}

// installRoundRobin is the per-line reference prewarm, installing into a
// sim whose own prewarm saw no Prewarmer.
func installRoundRobin(sim *hier.Sim, lists [][]uint64) {
	if sim.Bundle.L4DRAM == nil {
		return // NoL4: Sim.prewarm installs nothing either
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

// checkUneven fails unless the warm sets have unequal lengths, so the
// round-robin runs past exhausted cores.
func checkUneven(t *testing.T, lists [][]uint64) {
	t.Helper()
	shortest, longest := len(lists[0]), 0
	for _, l := range lists {
		shortest, longest = min(shortest, len(l)), max(longest, len(l))
	}
	if shortest == longest {
		t.Fatalf("every warm set holds %d lines; want unequal lengths", longest)
	}
}

// runDigest runs sim and hashes its JSON result.
func runDigest(t *testing.T, sim *hier.Sim) string {
	t.Helper()
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}
