// Package config defines the simulated system configuration. The defaults
// reproduce Table 1 of the BEAR paper (ISCA 2015): an 8-core 3.2 GHz CMP with
// a 4-level hierarchy, a stacked-DRAM L4 with 8x the bandwidth of the DDR
// main memory, and identical DRAM core timings on both (per the HBM spec
// assumption in the paper).
package config

// Design selects the L4 DRAM-cache architecture.
type Design int

const (
	// NoL4 removes the DRAM cache entirely; L3 misses go to main memory.
	// This is the normalisation baseline for Figures 3 and 17.
	NoL4 Design = iota
	// Alloy is the direct-mapped Tag-And-Data cache of Qureshi & Loh
	// (MICRO 2012) with the MAP-I miss predictor. The paper's baseline.
	Alloy
	// BEAR is Alloy plus all three BEAR components (BAB + DCP + NTC).
	BEAR
	// BWOpt is the idealised Bandwidth-Optimized cache: every secondary
	// operation is performed logically without consuming bus bandwidth and
	// hits move exactly 64 B.
	BWOpt
	// LohHill is the 29-way tags-in-row design of Loh & Hill (MICRO 2011),
	// equipped with a MissMap as in Section 7 of the BEAR paper.
	LohHill
	// MostlyClean is the Sim et al. (MICRO 2012) design: Loh-Hill row
	// organisation with a perfect hit/miss predictor dispatching predicted
	// misses directly to memory.
	MostlyClean
	// InclAlloy is Alloy with the inclusion property enforced against the
	// on-chip hierarchy: writeback probes are unnecessary but fills may not
	// be bypassed and L4 evictions back-invalidate the on-chip caches.
	InclAlloy
	// TIS stores all tags in an idealised on-chip SRAM (64 MB, un-penalised)
	// in front of a 32-way data store in stacked DRAM.
	TIS
	// Sector is a sector/footprint-style cache: 4 KB sectors with per-line
	// valid/dirty bits and an idealised 6 MB SRAM tag store.
	Sector
	// Banshee is the page-grained design of Yu et al. (MICRO 2017):
	// whole-page (BlockBytes) fills admitted by frequency-based replacement,
	// SRAM/TLB-resident tags with a tag buffer, and a dirty-probe flow for
	// writebacks that miss the buffer. Cross-paper comparison point for the
	// granularity axis.
	Banshee
	// TicToc is the DRAM-aware tag-check design of Young et al. (2019):
	// page-grained frames filled line-at-a-time, tags carried in the data
	// lines (hits need no separate probe) and an SRAM tag cache covering
	// miss tag checks. Cross-paper comparison point for the granularity
	// axis.
	TicToc
)

var designNames = map[Design]string{
	NoL4: "NoL4", Alloy: "Alloy", BEAR: "BEAR", BWOpt: "BW-Opt",
	LohHill: "LH", MostlyClean: "MC", InclAlloy: "Incl-Alloy",
	TIS: "TIS", Sector: "SC", Banshee: "Banshee", TicToc: "TicToc",
}

func (d Design) String() string { return designNames[d] }

// BypassPolicy selects the Miss-Fill policy for Alloy-family designs.
type BypassPolicy int

const (
	// FillAlways installs every missed line (conventional behaviour).
	FillAlways BypassPolicy = iota
	// ProbBypass bypasses a fixed fraction of fills at random (the naive
	// PB scheme of Section 4.1).
	ProbBypass
	// BandwidthAware is BAB: set-dueling between ProbBypass and FillAlways
	// with a bounded hit-rate loss (Section 4.2).
	BandwidthAware
	// DeadBlockBypass is a sampling-dead-block-predictor bypass (the prior
	// work of Section 9.2), provided for the abl-deadblock comparison.
	DeadBlockBypass
	// UpdateBypass is the dead-block bypass with Young & Qureshi-style
	// sampled update-bypass of replacement/secondary state: only sampled
	// sets pay the in-DRAM status-bit write and train the predictor
	// (the abl-upd comparison).
	UpdateBypass
)

func (b BypassPolicy) String() string {
	switch b {
	case ProbBypass:
		return "PB"
	case BandwidthAware:
		return "BAB"
	case DeadBlockBypass:
		return "DBP"
	case UpdateBypass:
		return "UpdBypass"
	default:
		return "Fill"
	}
}

// PredMode selects the L4 hit/miss predictor for Alloy-family designs.
type PredMode int

const (
	// PredMAPI is the MAP-I instruction-based predictor (the baseline).
	PredMAPI PredMode = iota
	// PredPerfect is an oracle predictor (ablation upper bound).
	PredPerfect
	// PredAlwaysHit always serialises memory behind the probe (no
	// predictor hardware; ablation lower bound).
	PredAlwaysHit
)

func (p PredMode) String() string {
	switch p {
	case PredPerfect:
		return "perfect"
	case PredAlwaysHit:
		return "always-hit"
	default:
		return "map-i"
	}
}

// DRAM describes one DRAM subsystem (the stacked cache or main memory).
// Timing fields are in CPU cycles.
type DRAM struct {
	Channels      int
	Banks         int    // banks per channel
	BytesPerCycle int    // data-bus bytes moved per CPU cycle per channel
	RowBytes      int    // row-buffer size
	TCAS          uint64 // column access
	TRCD          uint64 // row to column
	TRP           uint64 // precharge
	TRAS          uint64 // row active minimum
	TFAW          uint64 // four-activate window (0 disables the constraint)
	TREFI         uint64 // refresh interval per channel (0 disables refresh)
	TRFC          uint64 // refresh cycle time (banks unavailable)
	WriteQHi      int    // start draining writes at this depth
	WriteQLo      int    // stop draining at this depth
}

// TotalBandwidth returns aggregate bytes per CPU cycle.
func (d DRAM) TotalBandwidth() int { return d.Channels * d.BytesPerCycle }

// Cache describes one SRAM cache level.
type Cache struct {
	Bytes     int
	Ways      int
	LineBytes int
	Latency   uint64 // lookup latency in CPU cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Cache) Sets() int { return c.Bytes / (c.Ways * c.LineBytes) }

// Core describes the processor model.
type Core struct {
	Count  int
	Width  int // retire width (instructions per cycle)
	Window int // max instructions in flight past the oldest incomplete load
	MSHRs  int // max outstanding load misses per core
}

// System is the full simulated machine plus the L4 policy knobs.
type System struct {
	Core   Core
	L1, L2 Cache
	L3     Cache

	Design Design

	// L4 geometry. CacheBytes is the DRAM-cache capacity.
	CacheBytes int64
	L4         DRAM
	Mem        DRAM

	// Policy knobs (meaningful for Alloy-family designs; BEAR turns all
	// three components on).
	Bypass     BypassPolicy
	BypassProb float64 // P for ProbBypass / the PB component of BAB
	UseDCP     bool
	UseNTC     bool

	// NTCEntriesPerBank sizes the Neighboring Tag Cache (8 in the paper).
	NTCEntriesPerBank int

	// UseTTC enables a temporal tag cache alongside (or instead of) the
	// NTC: it records the demand set's tag on every access (Section 9.4's
	// prior-work class; orthogonal to the NTC per the paper).
	UseTTC bool

	// Pred selects the miss predictor for Alloy-family designs.
	Pred PredMode

	// WBAllocate switches the DRAM cache to a writeback-allocate policy:
	// writeback misses install the line (Writeback Fill) instead of
	// forwarding it to memory. The paper's baseline is no-allocate
	// (Section 3.1); allocate is modelled for the Section 2.3 discussion.
	WBAllocate bool

	// DuelSatLimit is the BAB access-counter saturation threshold. The
	// paper uses 16-bit counters (65536); scaled runs default to 2048 —
	// small enough to re-decide several times within a short simulation,
	// large enough that sampling noise does not flap the mode bit at the
	// 1/16 threshold.
	DuelSatLimit uint32

	// UseDIP selects DIP instead of LRU insertion for the Loh-Hill design's
	// 29-way sets (paper footnote 3) or the TIS design's SRAM tag store:
	// dramcache.Build composes the one dipFill policy over either, and
	// rejects the flag for every other design. abl-dip sweeps it.
	UseDIP bool
	// AssocWays is the associativity of TIS / Sector / Loh-Hill designs.
	AssocWays int

	// WarmFrac is the fraction of each core's instruction budget executed
	// before statistics are reset (cache warm-up).
	WarmFrac float64

	Seed uint64
}

// LineBytes is the line size used at every level (64 B, per the paper).
const LineBytes = 64

// BlockBytes is the allocation block of the sub-blocked designs: the
// Sector Cache's sector (4 KB in the paper) and the Banshee and TicToc
// page (4 KB in both papers). Each block tag covers BlockBytes / LineBytes
// lines, with per-line valid and dirty bits.
const BlockBytes = 4096

// TADBytes is the size of an Alloy Tag-And-Data entry on the bus: 8 B tag +
// 64 B data, padded to five 16 B bursts.
const TADBytes = 80

// Default returns the paper's Table 1 system at the given scale divisor.
// scale == 1 is the full 1 GB configuration; scale == N divides the L4 and
// L3 capacities (and, by convention in internal/trace, workload footprints)
// by N, preserving every capacity ratio so hit rates and bloat factors are
// unchanged while runs complete quickly.
func Default(scale int) System {
	if scale < 1 {
		scale = 1
	}
	l3Bytes := 8 << 20 / scale
	if l3Bytes < 128<<10 {
		l3Bytes = 128 << 10
	}
	// Private caches shrink with scaled runs so that scaled workload
	// footprints still exceed them (preserving the L2-miss / L3-miss
	// structure of the full-scale machine); they stay well below the L3.
	l1Bytes, l2Bytes := 32<<10, 256<<10
	if scale > 1 {
		l1Bytes, l2Bytes = 16<<10, 64<<10
	}
	return System{
		Core: Core{Count: 8, Width: 2, Window: 128, MSHRs: 8},
		L1:   Cache{Bytes: l1Bytes, Ways: 8, LineBytes: LineBytes, Latency: 4},
		L2:   Cache{Bytes: l2Bytes, Ways: 8, LineBytes: LineBytes, Latency: 12},
		L3:   Cache{Bytes: l3Bytes, Ways: 16, LineBytes: LineBytes, Latency: 24},

		Design:     Alloy,
		CacheBytes: 1 << 30 / int64(scale),
		// Stacked DRAM: 4 channels, 128-bit bus at 1.6 GHz DDR = 16 B per
		// 3.2 GHz CPU cycle per channel.
		L4: DRAM{
			Channels: 4, Banks: 16, BytesPerCycle: 16, RowBytes: 2048,
			TCAS: 36, TRCD: 36, TRP: 36, TRAS: 144,
			TFAW: 96, TREFI: 24960, TRFC: 1120,
			WriteQHi: 32, WriteQLo: 16,
		},
		// DDR main memory: 2 channels, 64-bit bus at 800 MHz DDR = 4 B per
		// CPU cycle per channel. Aggregate ratio vs. L4 = 8x.
		Mem: DRAM{
			Channels: 2, Banks: 8, BytesPerCycle: 4, RowBytes: 2048,
			TCAS: 36, TRCD: 36, TRP: 36, TRAS: 144,
			TFAW: 96, TREFI: 24960, TRFC: 1120,
			WriteQHi: 32, WriteQLo: 16,
		},

		Bypass:            FillAlways,
		BypassProb:        0.9,
		DuelSatLimit:      2048,
		NTCEntriesPerBank: 8,
		AssocWays:         32,
		WarmFrac:          0.5,
		Seed:              1,
	}
}

// WithDesign returns a copy of s configured for design d, applying the
// paper's per-design policy defaults (e.g. BEAR enables BAB+DCP+NTC).
func (s System) WithDesign(d Design) System {
	s.Design = d
	s.Bypass = FillAlways
	s.UseDCP = false
	s.UseNTC = false
	if d == BEAR {
		s.Bypass = BandwidthAware
		s.UseDCP = true
		s.UseNTC = true
	}
	return s
}

// AlloySets returns the number of direct-mapped TAD sets for an Alloy-family
// cache of the configured capacity: 28 TADs per 2 KB row.
func (s System) AlloySets() uint64 {
	rows := uint64(s.CacheBytes) / uint64(s.L4.RowBytes)
	return rows * 28
}

// LHSets returns the number of 29-way sets for a Loh-Hill cache: one set per
// 2 KB row (3 tag lines + 29 data lines).
func (s System) LHSets() uint64 {
	return uint64(s.CacheBytes) / uint64(s.L4.RowBytes)
}
