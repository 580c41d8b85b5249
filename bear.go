// Package bear is a simulation library reproducing "BEAR: Techniques for
// Mitigating Bandwidth Bloat in Gigascale DRAM Caches" (Chou, Jaleel,
// Qureshi — ISCA 2015).
//
// It models an 8-core system with a four-level cache hierarchy whose L4 is
// a gigascale stacked-DRAM cache, and implements the paper's designs: the
// Alloy-cache baseline with the MAP-I predictor, BEAR (Bandwidth-Aware
// Bypass + DRAM Cache Presence + Neighboring Tag Cache), the idealised
// Bandwidth-Optimized cache, Loh-Hill, Mostly-Clean, inclusive Alloy,
// Tags-In-SRAM and Sector Cache — over a banked, row-buffered DRAM timing
// model with USIMM-style scheduling.
//
// Quick start:
//
//	cfg := bear.DefaultConfig()
//	base, _ := bear.RunRate(cfg, "mcf")
//	cfg.Design = bear.BEAR
//	opt, _ := bear.RunRate(cfg, "mcf")
//	fmt.Printf("BEAR speedup %.3f, bloat %.2fx -> %.2fx\n",
//		bear.Speedup(opt, base), base.BloatFactor, opt.BloatFactor)
package bear

import (
	"fmt"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

// Design selects the L4 DRAM-cache architecture.
type Design int

// The DRAM-cache designs evaluated by the paper.
const (
	// NoL4 removes the DRAM cache (normalisation baseline of Figs 3, 17).
	NoL4 Design = iota
	// Alloy is the direct-mapped TAD baseline with MAP-I.
	Alloy
	// BEAR is Alloy + BAB + DCP + NTC (the paper's proposal).
	BEAR
	// BWOpt is the idealised Bandwidth-Optimized cache (Bloat Factor 1).
	BWOpt
	// LohHill is the 29-way tags-in-row design with a MissMap.
	LohHill
	// MostlyClean is Loh-Hill with a perfect hit/miss dispatch predictor.
	MostlyClean
	// InclAlloy is Alloy with enforced inclusion (no WB probes, no bypass).
	InclAlloy
	// TagsInSRAM idealises a 64 MB on-chip tag store (Section 8).
	TagsInSRAM
	// SectorCache is the 4 KB-sector, 6 MB-tag-store design (Section 8).
	SectorCache
	// Banshee is the page-grained design with FBR admission and a
	// tag-buffer writeback flow (cross-paper comparison point).
	Banshee
	// TicToc is the page-grained demand-fill design with a tag cache
	// resolving in-array tag checks (cross-paper comparison point).
	TicToc
)

var designToInternal = map[Design]config.Design{
	NoL4: config.NoL4, Alloy: config.Alloy, BEAR: config.BEAR,
	BWOpt: config.BWOpt, LohHill: config.LohHill, MostlyClean: config.MostlyClean,
	InclAlloy: config.InclAlloy, TagsInSRAM: config.TIS, SectorCache: config.Sector,
	Banshee: config.Banshee, TicToc: config.TicToc,
}

func (d Design) String() string { return designToInternal[d].String() }

// Designs lists every available design.
func Designs() []Design {
	return []Design{NoL4, Alloy, BEAR, BWOpt, LohHill, MostlyClean, InclAlloy, TagsInSRAM, SectorCache, Banshee, TicToc}
}

// BypassPolicy selects the Miss-Fill policy for Alloy-family designs (BEAR
// configures BandwidthAware automatically).
type BypassPolicy int

// Fill policies.
const (
	// FillAlways installs every missed line.
	FillAlways BypassPolicy = iota
	// ProbBypass is the naive probabilistic bypass of Section 4.1.
	ProbBypass
	// BandwidthAware is BAB (Section 4.2).
	BandwidthAware
)

// Config controls a simulation. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Scale divides the paper's 1 GB cache, 8 MB L3 and all workload
	// footprints by this factor, preserving every capacity ratio so hit
	// rates and bloat factors match the full-scale machine while runs are
	// fast. Scale 1 is the paper's machine.
	Scale int

	Design Design

	// Bypass policy for Alloy-family designs; ignored for BEAR (which uses
	// BandwidthAware) and non-Alloy designs.
	Bypass     BypassPolicy
	BypassProb float64
	// UseDCP / UseNTC enable individual BEAR components on an Alloy
	// baseline (for the component-by-component Figures 7/9/11); BEAR sets
	// both.
	UseDCP bool
	UseNTC bool

	// Overrides for the sensitivity studies. Zero means "paper default".
	L4Channels int   // bandwidth study: 2/4/8 channels = 4x/8x/16x DDR
	L4Banks    int   // banks-per-channel study (Fig 15 uses total banks)
	CapacityMB int64 // full-scale capacity override (512/1024/2048 in Fig 14b)

	// WarmInstr/MeasInstr are per-core instruction budgets for the warm-up
	// and measured phases.
	WarmInstr uint64
	MeasInstr uint64

	Cores int
	Seed  uint64

	// Check enables the simulation watchdog's invariant mode: cheap
	// engine checks (transaction accounting, DRAM queue occupancy, MSHR
	// accounting) run at fixed event epochs, and a post-run drain proves
	// quiescence. Results are byte-identical with Check on or off; an
	// unsound run fails with a typed error instead of returning numbers.
	Check bool
}

// DefaultConfig returns a configuration that reproduces the paper's shapes
// in seconds per run: the Table 1 machine at 1/64 scale with a 3M-
// instruction budget per core.
func DefaultConfig() Config {
	return Config{
		Scale:      64,
		Design:     Alloy,
		Bypass:     FillAlways,
		BypassProb: 0.9,
		WarmInstr:  1_000_000,
		MeasInstr:  2_000_000,
		Cores:      8,
		Seed:       1,
	}
}

// internal converts the public Config to the internal system description.
func (c Config) internal() config.System {
	sys := config.Default(c.Scale)
	sys = sys.WithDesign(designToInternal[c.Design])
	if c.Design == Alloy || c.Design == InclAlloy {
		sys.Bypass = config.BypassPolicy(c.Bypass)
		sys.UseDCP = c.UseDCP
		sys.UseNTC = c.UseNTC
	}
	sys.BypassProb = c.BypassProb
	if sys.BypassProb == 0 {
		sys.BypassProb = 0.9
	}
	if c.L4Channels > 0 {
		sys.L4.Channels = c.L4Channels
	}
	if c.L4Banks > 0 {
		sys.L4.Banks = c.L4Banks
	}
	if c.CapacityMB > 0 {
		sys.CacheBytes = c.CapacityMB << 20 / int64(c.Scale)
	}
	if c.Cores > 0 {
		sys.Core.Count = c.Cores
	}
	sys.Seed = c.Seed
	return sys
}

// Breakdown is the per-category Bloat-Factor decomposition (Figure 13).
type Breakdown struct {
	Hit, MissProbe, MissFill  float64
	WBProbe, WBUpdate, WBFill float64
	VictimRead, ReplUpdate    float64
}

// Total returns the full Bloat Factor.
func (b Breakdown) Total() float64 {
	return b.Hit + b.MissProbe + b.MissFill + b.WBProbe + b.WBUpdate + b.WBFill + b.VictimRead + b.ReplUpdate
}

// Result reports one simulation's measured statistics.
type Result struct {
	Design   string
	Workload string

	Cycles       uint64
	Instructions uint64
	IPC          float64
	CoreIPC      []float64
	CoreInstr    []uint64 // measured instructions retired per core

	L3MPKI       float64
	L3MissRate   float64 // fraction of L3 accesses that missed
	L3Misses     uint64
	L3Writebacks uint64

	L4HitRate     float64
	L4HitLatency  float64 // cycles
	L4MissLatency float64
	L4AvgLatency  float64
	// 95th-percentile latencies (upper bounds from power-of-two buckets),
	// exposing queuing-tail behaviour.
	L4HitLatP95  uint64
	L4MissLatP95 uint64

	BloatFactor float64
	Breakdown   Breakdown

	// L4 fills installed, and writeback probes (or DCP lookups) that found
	// or missed the line.
	Fills            uint64
	WBHits, WBMisses uint64

	// BEAR component diagnostics.
	Bypasses       uint64
	DCPProbesSaved uint64
	NTCProbesSaved uint64
	NTCParallelSq  uint64
	// MAP-I accuracy: correct / incorrect hit-miss predictions.
	PredHits, PredMisses uint64

	// Main-memory bus traffic (bytes).
	MemReadBytes, MemWriteBytes uint64
}

func resultFrom(r *stats.Run) *Result {
	l4 := &r.L4
	res := &Result{
		Design:       r.Design,
		Workload:     r.Workload,
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		IPC:          r.IPC(),
		CoreIPC:      r.CoreIPC,
		CoreInstr:    r.CoreInstr,
		L3MPKI:       r.MPKI(),
		L3MissRate:   r.L3MissRate(),
		L3Misses:     r.L3Misses,
		L3Writebacks: r.L3Writebacks,

		L4HitRate:     l4.HitRate(),
		L4HitLatency:  l4.AvgHitLatency(),
		L4MissLatency: l4.AvgMissLatency(),
		L4AvgLatency:  l4.AvgLatency(),
		L4HitLatP95:   l4.HitHist.Percentile(0.95),
		L4MissLatP95:  l4.MissHist.Percentile(0.95),
		BloatFactor:   l4.BloatFactor(),
		Breakdown: Breakdown{
			Hit:        l4.CategoryFactor(stats.HitProbe),
			MissProbe:  l4.CategoryFactor(stats.MissProbe),
			MissFill:   l4.CategoryFactor(stats.MissFill),
			WBProbe:    l4.CategoryFactor(stats.WBProbe),
			WBUpdate:   l4.CategoryFactor(stats.WBUpdate),
			WBFill:     l4.CategoryFactor(stats.WBFill),
			VictimRead: l4.CategoryFactor(stats.VictimRead),
			ReplUpdate: l4.CategoryFactor(stats.ReplUpdate),
		},
		Fills:          l4.Fills,
		WBHits:         l4.WBHits,
		WBMisses:       l4.WBMisses,
		Bypasses:       l4.Bypasses,
		DCPProbesSaved: l4.DCPProbesSaved,
		NTCProbesSaved: l4.NTCProbesSaved,
		NTCParallelSq:  l4.NTCParallelSqsh,
		PredHits:       l4.PredHits,
		PredMisses:     l4.PredMisses,
		MemReadBytes:   r.MemReadBytes,
		MemWriteBytes:  r.MemWriteBytes,
	}
	return res
}

// Benchmarks returns the 16 Table 2 benchmark names.
func Benchmarks() []string { return trace.RateNames() }

// MixCount is the number of mixed workloads the paper evaluates.
const MixCount = 38

func (c Config) run(wl trace.Workload) (*Result, error) {
	sim, err := hier.NewSim(c.internal(), wl, c.WarmInstr, c.MeasInstr)
	if err != nil {
		return nil, err
	}
	sim.Watchdog.Check = c.Check
	r, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return resultFrom(r), nil
}

// RunRate simulates the rate-mode workload of the named benchmark (all
// cores run copies in disjoint address regions).
func RunRate(cfg Config, benchmark string) (*Result, error) {
	wl, err := trace.Rate(benchmark, cfg.Cores, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return cfg.run(wl)
}

// RunMix simulates mixed workload n in [1, MixCount]; 1..8 follow Table 3.
func RunMix(cfg Config, n int) (*Result, error) {
	wl, err := trace.Mix(n, cfg.Cores, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return cfg.run(wl)
}

// MixComposition returns the benchmark running on each core of mixed
// workload n (1..8 follow Table 3 of the paper).
func MixComposition(n, cores int) []string {
	wl, err := trace.Mix(n, cores, 1, 1)
	if err != nil {
		return nil
	}
	out := make([]string, len(wl.Benchs))
	for i, b := range wl.Benchs {
		out[i] = b.Name
	}
	return out
}

// RunSingle simulates the named benchmark alone on one core (used for the
// weighted-speedup denominators of Equation 2).
func RunSingle(cfg Config, benchmark string) (*Result, error) {
	wl, err := trace.Single(benchmark, cfg.Cores, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return cfg.run(wl)
}

// RunTraceFiles simulates a workload replayed from recorded trace files
// (one file per core; see cmd/beartrace and the trace-file format in
// internal/trace). Footprints in the files must match cfg.Scale.
func RunTraceFiles(cfg Config, name string, paths []string) (*Result, error) {
	wl, err := trace.FromFiles(name, paths)
	if err != nil {
		return nil, err
	}
	return cfg.run(wl)
}

// Speedup returns baseline.Cycles / r.Cycles: the rate-mode normalised
// performance of r against a baseline run of the same workload.
func Speedup(r, baseline *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// WeightedSpeedup evaluates Equation 2 for a mix result given each core's
// single-program IPC on the same memory system.
func WeightedSpeedup(r *Result, singleIPC []float64) float64 {
	var ws float64
	for i, ipc := range r.CoreIPC {
		if i < len(singleIPC) && singleIPC[i] > 0 {
			ws += ipc / singleIPC[i]
		}
	}
	return ws
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(xs []float64) float64 { return stats.GeoMean(xs) }

// StorageOverhead reports Table 5 for the full-scale machine: BEAR's SRAM
// cost given the Table 1 LLC and DRAM-cache geometry.
func StorageOverhead() string {
	sys := config.Default(1)
	llcLines := int64(sys.L3.Bytes / sys.L3.LineBytes)
	o := core.ComputeOverhead(sys.Core.Count, llcLines, sys.L4.Channels*sys.L4.Banks)
	return o.String()
}

// Describe returns a human-readable summary of a result.
func Describe(r *Result) string {
	return fmt.Sprintf(
		"%s/%s: IPC=%.3f hitRate=%.1f%% hitLat=%.0f missLat=%.0f bloat=%.2fx",
		r.Workload, r.Design, r.IPC, 100*r.L4HitRate, r.L4HitLatency,
		r.L4MissLatency, r.BloatFactor)
}
