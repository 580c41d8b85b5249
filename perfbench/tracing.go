package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/dramcache"
	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

// traced is the per-layer run. It times every unit through
// exp.Runner.RunUnit and through one served sweep, then alternates untraced
// and traced direct simulations of every unit until the measured phase
// ends. Traced simulations run behind the seam wrappers, and the CPU profile
// that spans the phase keeps only their Sim.Run samples. Every result must
// equal the RunUnit reference.
func (b *bench) traced() (map[string]metric, error) {
	ref, unitSecs := b.reference()
	wall, prog, err := b.sweep(ref)
	if err != nil {
		return nil, err
	}
	var busy float64
	for _, s := range unitSecs {
		busy += s
	}
	m := map[string]metric{
		"exp.unit_s_p50":     {median(unitSecs), "s"},
		"exp.unit_s_max":     {slices.Max(unitSecs), "s"},
		"serve.idle_frac":    {1 - busy/(sweepWorkers*wall.Seconds()), "ratio"},
		"serve.retries":      {float64(prog.Retries), "count"},
		"serve.failed_units": {float64(prog.Failed), "count"},
	}
	tr := &tracer{wrap: b.o.wrap, layerNs: map[string]float64{}}
	if err := tr.start(); err != nil {
		return nil, err
	}
	var plainNs, plainInstr float64
	deadline := time.Now().Add(b.o.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, u := range b.w.units {
			key, _ := u.Key() // an invalid unit already failed in reference
			for _, t := range []*tracer{nil, tr} {
				s, err := b.simulate(u, t)
				if err != nil {
					b.fail("%v", err)
					continue
				}
				// A mismatch fails the run but the measurement stands.
				if s.digest != ref[key] {
					b.fail("%s: result %s (traced: %v) differs from the in-process RunUnit's %q",
						u, s.digest, t != nil, ref[key])
				}
				if t == nil {
					plainNs += float64(s.run.Nanoseconds())
					plainInstr += float64(s.res.Instructions)
				} else {
					tr.add(s)
				}
			}
		}
	}
	if err := tr.stop(); err != nil {
		return nil, err
	}
	if plainInstr == 0 || tr.sim.instr == 0 {
		return nil, fmt.Errorf("no direct simulation completed")
	}
	tr.metrics(m)
	untraced := plainNs / plainInstr
	m["tracing.untraced_ns_per_instr"] = metric{untraced, "ns/instr"}
	m["tracing.overhead_ns_per_instr"] = metric{m["tracing.traced_ns_per_instr"].Value - untraced, "ns/instr"}
	return m, nil
}

// hostLayers are the buckets the CPU profile's flat time is summed into:
// the simulator packages under bear/internal by name, "other" for the rest
// of bear/internal (rng, stats, ...), and "runtime" for everything outside
// it — the Go runtime, GC and the benchmark's own wrappers.
var hostLayers = []string{"event", "dram", "dramcache", "core", "sram", "cpu", "hier", "trace", "other", "runtime"}

// layerOf maps a profiled function name to its host layer.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "bear/internal/")
	if !ok {
		return "runtime"
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if slices.Contains(hostLayers, pkg) {
		return pkg
	}
	return "other"
}

// sampleMask selects the calls a tap times: one in sampleMask+1. A clock
// read costs several times a trace.Source.Next, so timing every call would
// make tracing overhead dominate the traced run; every call is counted.
const sampleMask = 7

// sourceTap wraps one core's trace.Source, counting Next calls and timing a
// sample of them.
type sourceTap struct {
	src   trace.Source
	calls uint64
	ns    int64 // time spent in the sampled calls
}

func (s *sourceTap) Next(op *trace.Op) {
	s.calls++
	if s.calls&sampleMask != 0 {
		s.src.Next(op)
		return
	}
	start := time.Now()
	s.src.Next(op)
	s.ns += int64(time.Since(start))
}

// prewarmTap is a sourceTap that forwards trace.Prewarmer too: without it
// Sim.prewarm finds no Prewarmer and silently skips the L4 warm-up.
type prewarmTap struct {
	*sourceTap
	trace.Prewarmer
}

// perCall is the mean time of a tap's sampled calls, given the time they
// took and the count of all calls.
func perCall(ns int64, calls uint64) float64 {
	return ratio(float64(ns), float64(calls/(sampleMask+1)))
}

// forwardPrewarm is the traced run's Source wrapper.
func forwardPrewarm(s *sourceTap) trace.Source {
	if p, ok := s.src.(trace.Prewarmer); ok {
		return prewarmTap{s, p}
	}
	return s
}

// l4Counts are the L4 tap's tallies: calls, and time spent in the sampled
// calls.
type l4Counts struct {
	reads, writebacks, fills    uint64
	readNs, writebackNs, fillNs int64
}

func (c *l4Counts) add(o l4Counts) {
	c.reads += o.reads
	c.writebacks += o.writebacks
	c.fills += o.fills
	c.readNs += o.readNs
	c.writebackNs += o.writebackNs
	c.fillNs += o.fillNs
}

// l4Tap wraps the L4 design at the hierarchy's seam. It times the
// issue-time work of each Read and Writeback and, through a pooled
// completion wrapper, the hierarchy's fill callback (which includes any
// writeback the fill's L3 victim issues).
type l4Tap struct {
	dramcache.Cache
	l4Counts
	free *fillTap
}

func (t *l4Tap) Read(now uint64, coreID int, line, pc uint64, done func(uint64, dramcache.ReadResult)) {
	f := t.free
	if f == nil {
		f = &fillTap{t: t}
		f.fn = f.fill
	} else {
		t.free = f.next
	}
	f.done = done
	t.reads++
	if t.reads&sampleMask != 0 {
		t.Cache.Read(now, coreID, line, pc, f.fn)
		return
	}
	start := time.Now()
	t.Cache.Read(now, coreID, line, pc, f.fn)
	t.readNs += int64(time.Since(start))
}

func (t *l4Tap) Writeback(now uint64, coreID int, line uint64, pres core.Presence) {
	t.writebacks++
	if t.writebacks&sampleMask != 0 {
		t.Cache.Writeback(now, coreID, line, pres)
		return
	}
	start := time.Now()
	t.Cache.Writeback(now, coreID, line, pres)
	t.writebackNs += int64(time.Since(start))
}

// fillTap is a pooled completion wrapper, one per in-flight L4 read, so the
// tap allocates nothing per read once the pool is warm.
type fillTap struct {
	t    *l4Tap
	done func(uint64, dramcache.ReadResult)
	fn   func(uint64, dramcache.ReadResult) // pre-bound f.fill
	next *fillTap
}

func (f *fillTap) fill(now uint64, res dramcache.ReadResult) {
	t, done := f.t, f.done
	f.done, f.next, t.free = nil, t.free, f
	t.fills++
	if t.fills&sampleMask != 0 {
		done(now, res)
		return
	}
	start := time.Now()
	done(now, res)
	t.fillNs += int64(time.Since(start))
}

// tracer installs a traced simulation's seam wrappers and accumulates what
// they and the CPU profile measure over every traced simulation.
type tracer struct {
	wrap    func(*sourceTap) trace.Source
	sources []*sourceTap // the current simulation's per-core taps
	l4      *l4Tap       // the current simulation's L4 tap
	profile bytes.Buffer

	layerNs   map[string]float64 // profiled flat ns per host layer
	nextCalls uint64
	nextNs    int64
	l4Counts
	runNs float64 // wall time of the traced Sim.Run calls
	sim   counters
}

func (t *tracer) wrapSources(srcs []trace.Source) {
	t.sources = t.sources[:0]
	for i, src := range srcs {
		tap := &sourceTap{src: src}
		t.sources = append(t.sources, tap)
		srcs[i] = t.wrap(tap)
	}
}

// attachL4 installs the L4 tap with Hierarchy.AttachL4 after NewSim, so
// Bundle.Cache — which prewarm's Install and the result's Stats use — stays
// the unwrapped design.
func (t *tracer) attachL4(sim *hier.Sim) {
	t.l4 = &l4Tap{Cache: sim.Bundle.Cache}
	sim.Hier.AttachL4(t.l4)
}

// profileHz is the traced phase's CPU sampling rate: 2.5 times
// pprof.StartCPUProfile's 100 Hz, so that a layer under 1% of a run still
// collects samples, and no faster than a 250 Hz kernel tick delivers (past
// it, samples go missing and show up as residual). Setting it first makes
// StartCPUProfile print a one-line warning on stderr that it cannot set its
// own rate.
const profileHz = 250

// runLabel marks the profile samples taken inside a traced Sim.Run; set-up,
// warm-up and untraced runs share the profile but not the label.
var runLabel = pprof.Labels("perfbench", "run")

// start begins the traced phase's CPU profile.
func (t *tracer) start() error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&t.profile)
}

// stop ends the CPU profile and sums the flat time of the samples taken
// inside traced Sim.Run calls by host layer.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	flat, err := profileFlat(t.profile.Bytes(), "perfbench", "run")
	if err != nil {
		return err
	}
	for fn, ns := range flat {
		t.layerNs[layerOf(fn)] += float64(ns)
	}
	return nil
}

// run zeroes the taps, which counted the warm-up too, and executes Sim.Run
// under runLabel.
func (t *tracer) run(sim *hier.Sim) (res *stats.Run, err error) {
	for _, s := range t.sources {
		s.calls, s.ns = 0, 0
	}
	t.l4.l4Counts = l4Counts{}
	pprof.Do(context.Background(), runLabel, func(context.Context) { res, err = sim.Run() })
	return res, err
}

// add folds one successful traced simulation's taps and result into the
// totals.
func (t *tracer) add(s *simulation) {
	for _, src := range t.sources {
		t.nextCalls += src.calls
		t.nextNs += src.ns
	}
	t.l4Counts.add(t.l4.l4Counts)
	t.runNs += float64(s.run.Nanoseconds())
	t.sim.add(s)
}

// metrics emits the traced run's per-layer metrics: host time per layer from
// the profile, the taps' per-call times and counts, and the simulated
// counters.
func (t *tracer) metrics(m map[string]metric) {
	instr := float64(t.sim.instr)
	var layers float64
	for _, l := range hostLayers {
		ns := t.layerNs[l] / instr
		layers += ns
		m[l+".ns_per_instr"] = metric{ns, "ns/instr"}
	}
	traced := t.runNs / instr
	m["tracing.traced_ns_per_instr"] = metric{traced, "ns/instr"}
	m["tracing.residual_ns_per_instr"] = metric{traced - layers, "ns/instr"}
	m["trace.next_ns"] = metric{perCall(t.nextNs, t.nextCalls), "ns"}
	m["trace.ops_per_instr"] = metric{float64(t.nextCalls) / instr, "ops/instr"}
	m["dramcache.read_ns"] = metric{perCall(t.readNs, t.reads), "ns"}
	m["dramcache.writeback_ns"] = metric{perCall(t.writebackNs, t.writebacks), "ns"}
	m["hier.fill_ns"] = metric{perCall(t.fillNs, t.fills), "ns"}
	m["dramcache.reads_pki"] = metric{1000 * float64(t.reads) / instr, "1/kinstr"}
	m["dramcache.writebacks_pki"] = metric{1000 * float64(t.writebacks) / instr, "1/kinstr"}
	t.sim.metrics(m)
}

// counters sums the simulated statistics of the traced simulations. They
// are deterministic, so a change that only speeds the simulator up must
// leave every one unchanged.
type counters struct {
	instr, cycles   uint64
	l3Misses, l3WBs uint64
	l4              stats.L4
	dram            [2]dram.Stats // stacked-DRAM L4, main memory
	busCycles       [2]uint64     // Σ cycles × channels: the bus-utilisation base
}

func (c *counters) add(s *simulation) {
	r := s.res
	c.instr += r.Instructions
	c.cycles += r.Cycles
	c.l3Misses += r.L3Misses
	c.l3WBs += r.L3Writebacks
	l := &c.l4
	for i, n := range r.L4.Bytes {
		l.Bytes[i] += n
	}
	l.ReadHits += r.L4.ReadHits
	l.ReadMisses += r.L4.ReadMisses
	l.Bypasses += r.L4.Bypasses
	l.HitLatSum += r.L4.HitLatSum
	l.MissLatSum += r.L4.MissLatSum
	l.NTCProbesSaved += r.L4.NTCProbesSaved
	l.DCPProbesSaved += r.L4.DCPProbesSaved
	l.PredHits += r.L4.PredHits
	l.PredMisses += r.L4.PredMisses
	for i, bus := range s.buses {
		d, st := &c.dram[i], bus.stats
		d.Reads += st.Reads
		d.Writes += st.Writes
		d.RowHits += st.RowHits
		d.RowMisses += st.RowMisses
		d.ReadQDelay += st.ReadQDelay
		d.BusBusy += st.BusBusy
		d.MaxWriteQLen = max(d.MaxWriteQLen, st.MaxWriteQLen)
		c.busCycles[i] += r.Cycles * uint64(bus.channels)
	}
}

func (c *counters) metrics(m map[string]metric) {
	pki := func(n uint64) float64 { return 1000 * float64(n) / float64(c.instr) }
	l := &c.l4
	m["cpu.ipc"] = metric{ratio(float64(c.instr), float64(c.cycles)), "instr/cycle"}
	m["hier.l3_mpki"] = metric{pki(c.l3Misses), "1/kinstr"}
	m["hier.l3_wb_pki"] = metric{pki(c.l3WBs), "1/kinstr"}
	m["dramcache.hit_rate"] = metric{l.HitRate(), "ratio"}
	m["dramcache.bloat_factor"] = metric{l.BloatFactor(), "ratio"}
	m["dramcache.bypass_pki"] = metric{pki(l.Bypasses), "1/kinstr"}
	m["dramcache.mapi_accuracy"] = metric{ratio(float64(l.PredHits), float64(l.PredHits+l.PredMisses)), "ratio"}
	m["dramcache.hit_lat_cyc"] = metric{l.AvgHitLatency(), "cycles"}
	m["dramcache.miss_lat_cyc"] = metric{l.AvgMissLatency(), "cycles"}
	m["core.ntc_saved_pki"] = metric{pki(l.NTCProbesSaved), "1/kinstr"}
	m["core.dcp_saved_pki"] = metric{pki(l.DCPProbesSaved), "1/kinstr"}
	for i, name := range []string{"l4", "mem"} {
		d, p := &c.dram[i], "dram."+name
		m[p+"_ops_pki"] = metric{pki(d.Reads + d.Writes), "1/kinstr"}
		m[p+"_row_hit_rate"] = metric{d.RowHitRate(), "ratio"}
		m[p+"_read_lat_cyc"] = metric{d.AvgReadLatency(), "cycles"}
		m[p+"_bus_util"] = metric{ratio(float64(d.BusBusy), float64(c.busCycles[i])), "ratio"}
		m[p+"_max_write_q"] = metric{float64(d.MaxWriteQLen), "requests"}
	}
}
