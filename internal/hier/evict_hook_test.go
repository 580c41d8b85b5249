package hier_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"bear/internal/config"
	"bear/internal/dramcache"
	"bear/internal/exp"
	"bear/internal/hier"
	"bear/internal/trace"
)

// evictCase is one configuration of the eviction-notice tests: every
// design at its paper defaults, plus Alloy with BAB+DCP and no NTC (the
// "+DCP" bar of fig9/fig13).
type evictCase struct {
	name string
	cfg  config.System
}

func evictCases() []evictCase {
	p := exp.Quick()
	var cs []evictCase
	for d := config.NoL4; d <= config.TicToc; d++ {
		cs = append(cs, evictCase{d.String(), config.Default(p.Scale).WithDesign(d)})
	}
	dcp := config.Default(p.Scale).WithDesign(config.Alloy)
	dcp.Bypass = config.BandwidthAware
	dcp.UseDCP = true
	return append(cs, evictCase{"Alloy+BAB+DCP", dcp})
}

// runEvictCase runs c on rate mcf at exp.Quick()'s scale and seed with
// small budgets, counting the OnEvict notices the hierarchy receives.
func runEvictCase(t *testing.T, c evictCase, hooks func(*hier.Hierarchy) dramcache.Hooks) (out []byte, notices int) {
	t.Helper()
	const warm, meas = 20000, 50000
	p := exp.Quick()
	wl, err := trace.Rate("mcf", c.cfg.Core.Count, p.Scale, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	counted := func(h *hier.Hierarchy) dramcache.Hooks {
		hk := hooks(h)
		if on := hk.OnEvict; on != nil {
			hk.OnEvict = func(line uint64) { notices++; on(line) }
		}
		return hk
	}
	sim, err := hier.NewSimHooks(c.cfg, wl, warm, meas, counted)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if out, err = json.Marshal(r); err != nil {
		t.Fatal(err)
	}
	return out, notices
}

// TestEvictNoticeOnlyUnderDCPKeepsResults pins that leaving OnEvict nil
// without DCP changes nothing: the presence bits it maintains are read
// only under DCP, so results must match a hierarchy that receives every
// notice.
func TestEvictNoticeOnlyUnderDCPKeepsResults(t *testing.T) {
	dropped := 0
	for _, c := range evictCases() {
		got, _ := runEvictCase(t, c, (*hier.Hierarchy).Hooks)
		want, all := runEvictCase(t, c, (*hier.Hierarchy).AllHooks)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: results differ from a hierarchy wired with every notice:\n  got:  %s\n  want: %s",
				c.name, got, want)
		}
		if !c.cfg.UseDCP {
			dropped += all
		}
		t.Logf("%s: %d notices with every upcall wired", c.name, all)
	}
	if dropped == 0 {
		t.Fatal("no design without DCP evicted a line: the comparison proves nothing")
	}
}

// TestEvictNoticeCount pins how many eviction notices reach the hierarchy:
// none for a design without DCP, and an exact count for the two DCP
// configurations, whose results depend on them.
func TestEvictNoticeCount(t *testing.T) {
	want := map[string]int{"BEAR": 20904, "Alloy+BAB+DCP": 20947}
	for _, c := range evictCases() {
		_, got := runEvictCase(t, c, (*hier.Hierarchy).Hooks)
		if got != want[c.name] {
			t.Errorf("%s: %d eviction notices, want %d", c.name, got, want[c.name])
		}
	}
}
