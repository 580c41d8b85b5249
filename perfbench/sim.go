package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"bear/internal/config"
	"bear/internal/dram"
	"bear/internal/exp"
	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

// minSims is the fewest timed simulations an untraced run makes, however
// short the measured phase: the digest check needs two repetitions.
const minSims = 2

// simRun measures a simulation workload end to end. Each iteration builds a
// fresh hier.Sim (the set-up), warms it with Sim.RunWarm and times Sim.Run;
// the run reports medians over the iterations.
func (b *bench) simRun() (map[string]metric, error) {
	var setup, nsPer []float64
	var heap float64
	first := map[exp.UnitSpec]string{}
	deadline := time.Now().Add(b.o.seconds)
	for i := 0; i < minSims || time.Now().Before(deadline); i++ {
		s, err := b.simulate(b.w.units[i%len(b.w.units)], nil)
		if err != nil {
			b.fail("%v", err)
			continue
		}
		setup = append(setup, s.setup.Seconds())
		nsPer = append(nsPer, float64(s.run.Nanoseconds())/float64(s.res.Instructions))
		heap = max(heap, s.heapMB)
		if d, ok := first[s.unit]; !ok {
			first[s.unit] = s.digest
		} else if s.digest != d {
			b.fail("%s: result digest %s differs from the first repetition's %s", s.unit, s.digest, d)
		}
	}
	if len(nsPer) == 0 {
		return nil, fmt.Errorf("no simulation completed")
	}
	return map[string]metric{
		"ns_per_instr": {median(nsPer), "ns/instr"},
		"setup_s":      {median(setup), "s"},
		"heap_mb":      {heap, "MB"},
	}, nil
}

// memBus is one DRAM subsystem's counters after a run, with the channel
// count that scales its bus-utilisation base.
type memBus struct {
	stats    dram.Stats
	channels int
}

// simulation is one direct simulation's outcome.
type simulation struct {
	unit       exp.UnitSpec
	res        *stats.Run
	digest     string
	setup, run time.Duration
	heapMB     float64   // live heap after set-up or after the run, whichever is larger
	buses      [2]memBus // stacked-DRAM L4 (zero without an L4), main memory
}

// simulate builds the unit's system with hier.NewSim, warms it and runs it,
// timing set-up and the measured Sim.Run. A non-nil tracer installs the seam
// wrappers and labels the Run's profile samples. The result must pass every
// output check.
func (b *bench) simulate(u exp.UnitSpec, tr *tracer) (*simulation, error) {
	b.attempted++
	cfg, err := system(u.Design, b.w.scale, b.o.seed)
	if err != nil {
		return nil, err
	}
	wl, err := trace.Rate(u.Workload, cfg.Core.Count, b.w.scale, b.o.seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.wrapSources(wl.Sources)
	}
	runtime.GC() // the previous simulation's garbage is not this set-up's cost
	start := time.Now()
	sim, err := hier.NewSim(cfg, wl, b.w.warm, b.w.meas)
	setup := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", u, err)
	}
	heap := liveHeapMB()
	if tr != nil {
		tr.attachL4(sim)
	}
	sim.RunWarm()
	var res *stats.Run
	start = time.Now()
	if tr != nil {
		res, err = tr.run(sim)
	} else {
		res, err = sim.Run()
	}
	run := time.Since(start)
	if err == nil {
		err = checkRun(res, cfg.Core.Count, b.w.meas)
	}
	if err == nil {
		err = checkBus(res, sim.Bundle.L4DRAM)
	}
	var d string
	if err == nil {
		d, err = digest(res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", u, err)
	}
	s := &simulation{unit: u, res: res, digest: d, setup: setup, run: run,
		heapMB: max(heap, liveHeapMB())}
	if l4 := sim.Bundle.L4DRAM; l4 != nil {
		s.buses[0] = memBus{l4.Stats, cfg.L4.Channels}
	}
	s.buses[1] = memBus{sim.Bundle.MemDRAM.Stats, cfg.Mem.Channels}
	return s, nil
}

// system returns the paper-default configuration of the named design: the
// system exp.Runner builds for the same UnitSpec, which the traced run
// confirms by comparing result digests with RunUnit's.
func system(design string, scale int, seed uint64) (config.System, error) {
	for d := config.NoL4; d <= config.TicToc; d++ {
		if strings.EqualFold(d.String(), design) {
			cfg := config.Default(scale).WithDesign(d)
			cfg.Seed = seed
			return cfg, nil
		}
	}
	return config.System{}, fmt.Errorf("unknown design %q", design)
}

// checkRun verifies that every core retired exactly its measured budget.
func checkRun(r *stats.Run, cores int, meas uint64) error {
	if len(r.CoreInstr) != cores {
		return fmt.Errorf("%d cores reported, want %d", len(r.CoreInstr), cores)
	}
	for i, n := range r.CoreInstr {
		if n != meas {
			return fmt.Errorf("core %d measured %d instructions, want %d", i, n, meas)
		}
	}
	if r.Instructions != uint64(cores)*meas {
		return fmt.Errorf("%d measured instructions, want %d cores × %d", r.Instructions, cores, meas)
	}
	return nil
}

// checkBus verifies the bloat accounting against the stacked DRAM's own bus
// counters: the eight categories must sum to the bytes the L4 moved. Both
// reset at the warm boundary, so transfers in flight across it land on one
// side only; the tolerance covers those.
func checkBus(r *stats.Run, l4 *dram.Memory) error {
	var cats uint64
	for _, n := range r.L4.Bytes {
		cats += n
	}
	if l4 == nil {
		if cats != 0 {
			return fmt.Errorf("no L4, yet the bloat categories sum to %d B", cats)
		}
		return nil
	}
	bus := l4.Stats.ReadBytes + l4.Stats.WriteBytes
	if max(cats, bus)-min(cats, bus) > bus/100+64<<10 {
		return fmt.Errorf("bloat categories sum to %d B but the L4 bus moved %d B", cats, bus)
	}
	return nil
}

// digest fingerprints a result; equal digests mean byte-identical results.
func digest(r *stats.Run) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// liveHeapMB forces a collection and returns the live Go heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
