package hier

import (
	"fmt"
	"math"

	"bear/internal/config"
	"bear/internal/cpu"
	"bear/internal/dram"
	"bear/internal/dramcache"
	"bear/internal/event"
	"bear/internal/fault"
	"bear/internal/stats"
	"bear/internal/trace"
)

// Sim assembles and runs one complete simulation: cores driving a hierarchy
// over an L4 design, with a warm-up phase before measurement.
type Sim struct {
	Cfg      config.System
	Workload trace.Workload

	Q      *event.Queue
	Hier   *Hierarchy
	Bundle *dramcache.Bundle
	Cores  []*cpu.Core

	// Watchdog bounds the run; zero fields take defaults (see Watchdog).
	// Set between construction and Run.
	Watchdog Watchdog

	warm, meas uint64
	warmLeft   int
	finishLeft int
	started    bool
	MarkTime   uint64
}

// Watchdog configures the forward-progress and invariant monitors Run
// applies. The monitors are pure observers sampling at fixed event-count
// epochs: they never schedule events or mutate simulation state, so
// enabling them (at any threshold) leaves results byte-identical, and a
// wedged simulation trips them at the same cycle on every run.
type Watchdog struct {
	// MaxCycles aborts the run when simulated time exceeds it. Zero
	// derives a generous bound from the instruction budget.
	MaxCycles uint64
	// StallCycles aborts when no core retires an instruction for this
	// many simulated cycles while events keep firing (livelock). Zero
	// defaults to 1<<22 — orders of magnitude above any legitimate stall
	// (a DRAM refresh window or write drain is thousands of cycles).
	StallCycles uint64
	// CheckEvery is the monitor epoch in executed events (default 1<<16).
	CheckEvery uint64
	// Check additionally runs cheap engine invariant checks every epoch
	// (transaction accounting, DRAM queue occupancy and scheduler-memo
	// cross-checks, MSHR accounting), verifies every DRAM scheduling
	// decision against the naive reference picker, and performs a post-run
	// drain + freelist leak check (the -check flag).
	Check bool
	// MaxQueued bounds per-memory DRAM request occupancy under Check
	// (default 1<<16).
	MaxQueued int
	// DrainEvents bounds the post-run queue drain under Check
	// (default 1<<24).
	DrainEvents uint64
}

// withDefaults resolves zero fields against the instruction budget.
func (w Watchdog) withDefaults(warm, meas uint64) Watchdog {
	if w.CheckEvery == 0 {
		w.CheckEvery = 1 << 16
	}
	if w.StallCycles == 0 {
		w.StallCycles = 1 << 22
	}
	if w.MaxCycles == 0 {
		// Even a fully serialised core retires one instruction per memory
		// round trip (hundreds of cycles); 1024 cycles per instruction plus
		// fixed slack is far beyond any legitimate configuration.
		w.MaxCycles = (warm+meas)*1024 + 1<<24
	}
	if w.MaxQueued == 0 {
		w.MaxQueued = 1 << 16
	}
	if w.DrainEvents == 0 {
		w.DrainEvents = 1 << 24
	}
	return w
}

// NewSim builds a simulation of cfg running workload, where each core
// executes warm instructions before measurement and meas instructions
// during it.
func NewSim(cfg config.System, wl trace.Workload, warm, meas uint64) (*Sim, error) {
	return NewSimQueue(cfg, wl, warm, meas, &event.Queue{})
}

// NewSimQueue is NewSim with a caller-supplied event queue, which it Resets
// before use. Worker pools running many simulations back to back pass a
// pooled queue so its grown backing array is reused instead of reallocated
// per simulation.
func NewSimQueue(cfg config.System, wl trace.Workload, warm, meas uint64, q *event.Queue) (*Sim, error) {
	return newSim(cfg, wl, warm, meas, q, (*Hierarchy).Hooks)
}

// newSim is NewSimQueue with the dramcache upcalls taken from hooks, so
// tests can wire, wrap or count them.
func newSim(cfg config.System, wl trace.Workload, warm, meas uint64, q *event.Queue,
	hooks func(*Hierarchy) dramcache.Hooks) (*Sim, error) {
	if len(wl.Sources) == 0 {
		return nil, fmt.Errorf("hier: workload %q has no sources", wl.Name)
	}
	if err := checkHitLatencies(cfg); err != nil {
		return nil, err
	}
	q.Reset()
	s := &Sim{Cfg: cfg, Workload: wl, Q: q, warm: warm, meas: meas}
	cores := len(wl.Sources)
	s.Hier = New(cfg, s.Q, cores)
	bundle, err := dramcache.Build(cfg, s.Q, hooks(s.Hier))
	if err != nil {
		return nil, err
	}
	s.Bundle = bundle
	s.Hier.AttachL4(bundle.Cache)

	s.warmLeft = cores
	s.finishLeft = cores
	for i := 0; i < cores; i++ {
		c := cpu.New(i, cfg.Core, s.Q, wl.Sources[i], s.Hier, warm, meas,
			s.onWarm, s.onFinish)
		s.Cores = append(s.Cores, c)
	}
	s.prewarm()
	return s, nil
}

// HitLatencyError rejects a config with an on-chip hit latency at or above
// cpu.SyncLimit (Core.Window/Core.Width). The cores keep on-chip hits out of
// their outstanding-load window, which is exact only when every such hit
// completes before it could be the oldest load of a full window.
type HitLatencyError struct {
	Level   string // "L1", "L2" or "L3"
	Latency uint64 // the level's hit latency, in cycles
	Limit   uint64 // cpu.SyncLimit of the core config
}

func (e *HitLatencyError) Error() string {
	return fmt.Sprintf("hier: %s hit latency %d is not below Core.Window/Core.Width = %d",
		e.Level, e.Latency, e.Limit)
}

// checkHitLatencies returns a *HitLatencyError for the first cache level
// whose hit latency breaks cpu.SyncLimit.
func checkHitLatencies(cfg config.System) error {
	limit := cpu.SyncLimit(cfg.Core)
	for _, l := range []struct {
		level string
		c     config.Cache
	}{{"L1", cfg.L1}, {"L2", cfg.L2}, {"L3", cfg.L3}} {
		if l.c.Latency >= limit {
			return &HitLatencyError{Level: l.level, Latency: l.c.Latency, Limit: limit}
		}
	}
	return nil
}

// prewarm functionally installs each workload's steady-state residency into
// the L4 before any timed instruction executes: each core's warm runs,
// capped at its fair share of the TAD sets. It hands Cache.Prewarm the
// whole footprint and the cap, so the cache can also prepare for the lines
// the cap leaves out. Cache.Prewarm owns the order.
func (s *Sim) prewarm() {
	cores := len(s.Workload.Sources)
	fair := uint64(s.Cfg.CacheBytes) / config.TADBytes / uint64(cores)
	runs := make([][]trace.Run, cores)
	for i, src := range s.Workload.Sources {
		if p, ok := src.(trace.Prewarmer); ok {
			runs[i] = p.PrewarmRuns(math.MaxUint64)
		}
	}
	s.Bundle.Cache.Prewarm(runs, fair)
}

func (s *Sim) onWarm(coreID int) {
	s.warmLeft--
	if s.warmLeft == 0 {
		s.MarkTime = s.Q.Now()
		s.resetStats()
	}
}

func (s *Sim) onFinish(coreID int, now uint64) { s.finishLeft-- }

// resetStats zeroes all measured counters at the warm boundary, and clears
// the BAB duelling monitors so mode decisions reflect steady-state rather
// than cold-cache behaviour.
func (s *Sim) resetStats() {
	s.Bundle.Cache.Stats().Reset()
	s.Bundle.MemDRAM.Stats = dram.Stats{}
	if s.Bundle.L4DRAM != nil {
		s.Bundle.L4DRAM.Stats = dram.Stats{}
	}
	s.Hier.Counters = Counters{}
	if s.Bundle.BAB != nil {
		s.Bundle.BAB.ResetMonitors()
	}
}

// start schedules every core's first execution slice exactly once.
func (s *Sim) start() {
	if s.started {
		return
	}
	s.started = true
	for _, c := range s.Cores {
		c.Start()
	}
}

// RunWarm executes events until every core has crossed its warm-up boundary,
// then returns with the simulation ready to continue via Run. Benchmarks use
// this split to measure the steady-state (measured) phase in isolation: by
// the warm boundary the event queue, request freelists and transaction pools
// have grown to their working sizes, so allocations observed across the
// remaining Run are true steady-state allocations.
func (s *Sim) RunWarm() {
	s.start()
	s.Q.Run(func() bool { return s.warmLeft == 0 })
}

// totalRetired sums retired instructions over all cores: the watchdog's
// forward-progress signal.
func (s *Sim) totalRetired() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Retired()
	}
	return n
}

// watchdogErr builds a deterministic diagnosis for a tripped monitor.
func (s *Sim) watchdogErr(kind fault.WatchdogKind, limit uint64) *fault.WatchdogError {
	return &fault.WatchdogError{
		Kind:     kind,
		Workload: s.Workload.Name,
		Design:   s.Bundle.Cache.Name(),
		Cycle:    s.Q.Now(),
		Retired:  s.totalRetired(),
		Limit:    limit,
	}
}

// freelist is the live count of one of the simulation's hand-rolled object
// pools, labelled with the component that owns it.
type freelist struct {
	component, what string
	live            int
}

// freelists reports every pool's live count: the objects it has handed out
// and not yet taken back.
func (s *Sim) freelists() []freelist {
	b := s.Bundle
	f := []freelist{
		{"dramcache", b.Cache.Name() + " transactions", b.Cache.OutstandingTxns()},
		{"dramcache", "victim forwards", b.Mem.LiveFwds()},
		{"dram", b.MemDRAM.Name + " requests", b.MemDRAM.LiveRequests()},
		{"hier", "miss entries", s.Hier.liveMisses},
	}
	if b.L4DRAM != nil {
		f = append(f, freelist{"dram", b.L4DRAM.Name + " requests", b.L4DRAM.LiveRequests()})
	}
	for _, c := range s.Cores {
		f = append(f, freelist{"cpu", fmt.Sprintf("core %d load tokens", c.ID), c.LiveTokens()})
	}
	return f
}

// checkInvariants runs the cheap per-epoch engine checks enabled by
// Watchdog.Check: freelist accounting, DRAM queue occupancy, MSHR
// accounting and miss-table consistency.
func (s *Sim) checkInvariants(maxQueued int) error {
	for _, f := range s.freelists() {
		if f.live < 0 {
			return fault.Invariantf(f.component, "%d %s outstanding (double release)", f.live, f.what)
		}
	}
	if err := s.Bundle.MemDRAM.CheckInvariants(maxQueued); err != nil {
		return err
	}
	if s.Bundle.L4DRAM != nil {
		if err := s.Bundle.L4DRAM.CheckInvariants(maxQueued); err != nil {
			return err
		}
	}
	for _, c := range s.Cores {
		if err := c.CheckMSHRs(); err != nil {
			return err
		}
	}
	return s.Hier.CheckPending()
}

// drainAndCheck halts every core, drains the event queue (bounded by
// DrainEvents) and verifies that quiescence really is quiescent: every
// freelist has taken back all it handed out and no request is still queued
// in any DRAM channel. Only called under Watchdog.Check, after results have
// been snapshotted.
func (s *Sim) drainAndCheck(wd Watchdog) error {
	for _, c := range s.Cores {
		c.Halt()
	}
	var steps uint64
	for s.Q.Step() {
		steps++
		if steps > wd.DrainEvents {
			return s.watchdogErr(fault.WatchdogDrain, wd.DrainEvents)
		}
	}
	for _, f := range s.freelists() {
		if f.live != 0 {
			return fault.Invariantf(f.component, "%d %s leaked from the pool after drain", f.live, f.what)
		}
	}
	if p := s.Bundle.MemDRAM.Pending(); p != 0 {
		return fault.Invariantf("dram", "%s: %d requests still queued after drain", s.Bundle.MemDRAM.Name, p)
	}
	if s.Bundle.L4DRAM != nil {
		if p := s.Bundle.L4DRAM.Pending(); p != 0 {
			return fault.Invariantf("dram", "%s: %d requests still queued after drain", s.Bundle.L4DRAM.Name, p)
		}
	}
	return nil
}

// Run executes the simulation to completion and returns the results.
//
// Run steps the queue itself (rather than delegating to Queue.Run) so the
// watchdog can observe the simulation at fixed event-count epochs without
// scheduling events of its own — the event sequence, and therefore every
// result, is byte-identical with the watchdog at any setting. A tripped
// monitor converts a livelock, runaway or deadlock into a typed
// *fault.WatchdogError naming the workload, design and cycle.
func (s *Sim) Run() (*stats.Run, error) {
	s.start()
	wd := s.Watchdog.withDefaults(s.warm, s.meas)
	if wd.Check {
		// Every DRAM scheduling decision re-derives itself through the
		// unpruned reference scan (dram/reference.go), so the scheduler's
		// prunes are checked on every pick of the run. Like the epoch
		// checks, it observes without scheduling: results stay identical.
		s.Bundle.MemDRAM.SelfCheck = true
		if s.Bundle.L4DRAM != nil {
			s.Bundle.L4DRAM.SelfCheck = true
		}
	}
	var steps uint64
	lastRetired := s.totalRetired()
	progressAt := s.Q.Now()
	for s.finishLeft > 0 {
		if !s.Q.Step() {
			break
		}
		steps++
		if steps%wd.CheckEvery != 0 {
			continue
		}
		now := s.Q.Now()
		if now > wd.MaxCycles {
			return nil, s.watchdogErr(fault.WatchdogCycleBudget, wd.MaxCycles)
		}
		if r := s.totalRetired(); r != lastRetired {
			lastRetired, progressAt = r, now
		} else if now-progressAt > wd.StallCycles {
			return nil, s.watchdogErr(fault.WatchdogStall, wd.StallCycles)
		}
		if wd.Check {
			if err := s.checkInvariants(wd.MaxQueued); err != nil {
				return nil, err
			}
		}
	}
	if s.finishLeft != 0 {
		return nil, s.watchdogErr(fault.WatchdogDeadlock, uint64(s.finishLeft))
	}

	r := &stats.Run{
		Design:   s.Bundle.Cache.Name(),
		Workload: s.Workload.Name,
		L4:       *s.Bundle.Cache.Stats(),
	}
	var maxFinish uint64
	for _, c := range s.Cores {
		if c.FinishAt > maxFinish {
			maxFinish = c.FinishAt
		}
		r.CoreInstr = append(r.CoreInstr, c.MeasuredInstructions())
		r.CoreIPC = append(r.CoreIPC, c.IPC())
		r.Instructions += c.MeasuredInstructions()
	}
	if maxFinish > s.MarkTime {
		r.Cycles = maxFinish - s.MarkTime
	}
	r.L3Accesses = s.Hier.Counters.L3Accesses
	r.L3Misses = s.Hier.Counters.L3Misses
	r.L3Writebacks = s.Hier.Counters.L3Writebacks
	r.MemReadBytes = s.Bundle.MemDRAM.Stats.ReadBytes
	r.MemWriteBytes = s.Bundle.MemDRAM.Stats.WriteBytes

	// Under -check, prove quiescence after the results are snapshotted so
	// the epilogue cannot perturb them: drain the queue and verify nothing
	// leaked. An error here means the run's accounting was unsound even if
	// its numbers looked plausible.
	if wd.Check {
		if err := s.drainAndCheck(wd); err != nil {
			return nil, err
		}
	}
	return r, nil
}
