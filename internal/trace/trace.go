// Package trace synthesises the paper's workloads. The original evaluation
// replays 1B-instruction SimPoint regions of SPEC CPU2006; those traces are
// proprietary, so each benchmark is substituted by a deterministic address
// stream generator parameterised to match Table 2 (L3 MPKI and footprint)
// and a locality profile chosen to reproduce the paper's qualitative
// per-workload behaviour:
//
//   - near reuse      — re-touches of recently used lines (absorbed by L1/L2)
//   - sequential walk — streaming over the footprint (row-buffer and
//     neighboring-tag locality; lbm/libquantum/bwaves)
//   - hot set         — a region with strong L4 reuse (fills are useful;
//     GemsFDTD/zeusmp are hurt by naive bypass because of this component)
//   - random          — pointer-chasing over the whole footprint (fills are
//     rarely reused; mcf/milc benefit from bypass)
//
// Store fraction drives dirty-line writeback traffic (omnetpp/gcc are
// writeback-heavy, which is where DCP wins).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"bear/internal/config"
	"bear/internal/rng"
)

// Op is one trace record: NonMem non-memory instructions followed by one
// memory access to line Line (a 64 B-line address) by instruction PC.
type Op struct {
	NonMem uint32
	Line   uint64
	PC     uint64
	Store  bool
}

// Source produces an infinite instruction stream for one core.
type Source interface {
	Next(op *Op)
}

// Prewarmer is implemented by sources that can enumerate their steady-state
// cache residency for functional warming. The residency comes as runs of
// consecutive lines, so the DRAM cache can warm a whole run at once instead
// of line by line.
type Prewarmer interface {
	// PrewarmRuns returns the warm lines, capped at limit lines, as runs
	// of consecutive lines with no empty run. Lines are ordered by
	// priority: a prefix of the concatenated runs is the best warm set of
	// that size.
	PrewarmRuns(limit uint64) []Run
}

// Run is First, First+1, ..., First+Len-1: Len consecutive lines.
type Run struct{ First, Len uint64 }

// Benchmark describes one synthetic SPEC-like program. MPKI and FootprintMB
// are the full-scale (1 GB cache) Table 2 values; FootprintMB is the total
// across the 8 rate-mode copies, as reported in the paper.
type Benchmark struct {
	Name        string
	MPKI        float64
	FootprintMB int

	// Locality profile.
	SeqFrac   float64 // of far accesses: sequential walk fraction
	HotFrac   float64 // of far accesses: hot-set fraction
	HotMB     int     // hot-set size per core, full scale
	StoreFrac float64

	// APKI is memory ops (line touches) per kilo-instruction.
	APKI float64
}

// HighIntensive reports the paper's High/Medium split. The paper states
// "MPKI greater than 12" but its Table 3 mix classes place sphinx3
// (MPKI 12.4) in the Medium group (MIX8 is "8M" and includes sphinx3), so
// the effective threshold sits above 12.4.
func (b Benchmark) HighIntensive() bool { return b.MPKI > 12.5 }

// Catalog lists the 16 Table 2 benchmarks in paper order.
var Catalog = []Benchmark{
	{Name: "mcf", MPKI: 74.6, FootprintMB: 10445, SeqFrac: 0.10, HotFrac: 0.45, HotMB: 96, StoreFrac: 0.25, APKI: 300},
	{Name: "lbm", MPKI: 32.7, FootprintMB: 3174, SeqFrac: 0.65, HotFrac: 0.25, HotMB: 48, StoreFrac: 0.45, APKI: 300},
	{Name: "soplex", MPKI: 27.1, FootprintMB: 1946, SeqFrac: 0.50, HotFrac: 0.30, HotMB: 48, StoreFrac: 0.30, APKI: 300},
	{Name: "milc", MPKI: 26.1, FootprintMB: 4608, SeqFrac: 0.45, HotFrac: 0.35, HotMB: 64, StoreFrac: 0.35, APKI: 300},
	{Name: "libq", MPKI: 25.5, FootprintMB: 256, SeqFrac: 0.95, HotFrac: 0.00, HotMB: 0, StoreFrac: 0.25, APKI: 300},
	{Name: "omnetpp", MPKI: 21.1, FootprintMB: 1126, SeqFrac: 0.20, HotFrac: 0.50, HotMB: 64, StoreFrac: 0.45, APKI: 300},
	{Name: "bwaves", MPKI: 18.7, FootprintMB: 1536, SeqFrac: 0.85, HotFrac: 0.10, HotMB: 32, StoreFrac: 0.30, APKI: 300},
	{Name: "gcc", MPKI: 18.6, FootprintMB: 680, SeqFrac: 0.30, HotFrac: 0.50, HotMB: 48, StoreFrac: 0.45, APKI: 300},
	{Name: "sphinx3", MPKI: 12.4, FootprintMB: 136, SeqFrac: 0.50, HotFrac: 0.40, HotMB: 16, StoreFrac: 0.10, APKI: 300},
	{Name: "Gems", MPKI: 9.9, FootprintMB: 5427, SeqFrac: 0.25, HotFrac: 0.60, HotMB: 96, StoreFrac: 0.35, APKI: 300},
	{Name: "leslie", MPKI: 7.6, FootprintMB: 616, SeqFrac: 0.70, HotFrac: 0.20, HotMB: 32, StoreFrac: 0.30, APKI: 300},
	{Name: "wrf", MPKI: 6.8, FootprintMB: 488, SeqFrac: 0.60, HotFrac: 0.30, HotMB: 32, StoreFrac: 0.30, APKI: 300},
	{Name: "cactus", MPKI: 5.5, FootprintMB: 1229, SeqFrac: 0.50, HotFrac: 0.30, HotMB: 48, StoreFrac: 0.30, APKI: 300},
	{Name: "zeusmp", MPKI: 4.8, FootprintMB: 1536, SeqFrac: 0.30, HotFrac: 0.60, HotMB: 96, StoreFrac: 0.30, APKI: 300},
	{Name: "bzip2", MPKI: 3.7, FootprintMB: 2458, SeqFrac: 0.40, HotFrac: 0.40, HotMB: 64, StoreFrac: 0.30, APKI: 300},
	{Name: "xalanc", MPKI: 2.3, FootprintMB: 1331, SeqFrac: 0.20, HotFrac: 0.50, HotMB: 32, StoreFrac: 0.30, APKI: 300},
}

// ByName returns the catalog entry for name.
func ByName(name string) (Benchmark, error) {
	for _, b := range Catalog {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// detailedMixes is Table 3 of the paper.
var detailedMixes = [][]string{
	{"libq", "mcf", "soplex", "milc", "bwaves", "lbm", "omnetpp", "gcc"},        // MIX1 8H
	{"libq", "mcf", "soplex", "milc", "lbm", "omnetpp", "Gems", "sphinx3"},      // MIX2 6H+2M
	{"mcf", "soplex", "milc", "bwaves", "gcc", "lbm", "leslie", "cactus"},       // MIX3 6H+2M
	{"libq", "mcf", "soplex", "milc", "Gems", "leslie", "wrf", "zeusmp"},        // MIX4 4H+4M
	{"bwaves", "lbm", "omnetpp", "gcc", "cactus", "xalanc", "bzip2", "sphinx3"}, // MIX5 4H+4M
	{"libq", "gcc", "Gems", "leslie", "wrf", "zeusmp", "cactus", "xalanc"},      // MIX6 2H+6M
	{"mcf", "omnetpp", "Gems", "leslie", "wrf", "xalanc", "bzip2", "sphinx3"},   // MIX7 2H+6M
	{"Gems", "leslie", "wrf", "zeusmp", "cactus", "xalanc", "bzip2", "sphinx3"}, // MIX8 8M
}

// Workload is a named assignment of one Source per core.
type Workload struct {
	Name    string
	Benchs  []Benchmark // one per core
	Sources []Source
	IsMix   bool
}

const lineBytes = config.LineBytes

// coreRegionStride separates per-core address spaces, mirroring the paper's
// guarantee that two benchmarks never map to the same address. The stride is
// a prime far larger than any footprint, so regions never overlap and —
// unlike a power-of-two stride — never alias to the same sets of a
// direct-mapped cache whose set count has small odd factors.
const coreRegionStride = 2654435761

// Gen is the synthetic benchmark generator (one per core).
type Gen struct {
	b     Benchmark
	rs    uint64 // rng state, advanced by rng.Step
	scale int

	base      uint64 // first line of this core's region
	footLines uint64
	hotBase   uint64
	hotLines  uint64
	seqCursor uint64

	missFrac float64
	gapPerOp float64 // 1000/APKI - 1, hoisted off the per-op path
	nonMemQ  float64 // fractional non-mem instructions carried over

	recent    [64]uint64
	recentLen int
	recentPos int
}

// NewGen builds a generator for benchmark b on the given core, with the
// footprint divided by scale (matching the scaled cache capacity).
func NewGen(b Benchmark, core int, scale int, seed uint64) *Gen {
	if scale < 1 {
		scale = 1
	}
	// Table 2 footprints are totals over 8 rate-mode copies.
	perCoreLines := uint64(b.FootprintMB) << 20 / 8 / lineBytes / uint64(scale)
	if perCoreLines < 1024 {
		perCoreLines = 1024
	}
	hotLines := uint64(b.HotMB) << 20 / lineBytes / uint64(scale)
	if hotLines > perCoreLines/2 {
		hotLines = perCoreLines / 2
	}
	if b.HotFrac > 0 && hotLines < 256 {
		hotLines = 256
	}
	g := &Gen{
		b:         b,
		rs:        rng.New(seed ^ (uint64(core)+1)*0x9e3779b97f4a7c15).State(),
		scale:     scale,
		base:      uint64(core) * coreRegionStride,
		footLines: perCoreLines,
		hotLines:  hotLines,
		missFrac:  b.MPKI / b.APKI,
		gapPerOp:  1000/b.APKI - 1,
	}
	// Hot region sits in the middle of the footprint.
	g.hotBase = g.base + perCoreLines/4
	g.seqCursor = g.base
	return g
}

// Bench returns the benchmark this generator models.
func (g *Gen) Bench() Benchmark { return g.b }

// PrewarmRuns implements Prewarmer. It enumerates the benchmark's
// steady-state DRAM-cache residency: the hot set first (its reuse keeps it
// resident), then the rest of the footprint in address order with the hot
// range skipped. That is three runs — the hot range, the footprint below
// it, the footprint above it — cut to limit lines. The simulator installs
// them functionally before timing starts, standing in for the SimPoint
// functional-warming the paper's 1B-instruction runs perform implicitly.
//
// The hot set lies inside the footprint, so the runs hold at most
// footLines distinct lines.
func (g *Gen) PrewarmRuns(limit uint64) []Run {
	lead := g.hotBase - g.base
	all := [3]Run{
		{g.hotBase, g.hotLines},
		{g.base, lead},
		{g.hotBase + g.hotLines, g.footLines - lead - g.hotLines},
	}
	runs := make([]Run, 0, len(all))
	for _, r := range all {
		r.Len = min(r.Len, limit)
		if r.Len > 0 {
			runs = append(runs, r)
			limit -= r.Len
		}
	}
	return runs
}

// FootprintLines returns the scaled per-core footprint in lines.
func (g *Gen) FootprintLines() uint64 { return g.footLines }

// Synthetic PC pools: MAP-I learns per-PC hit/miss bias, so each locality
// component uses a distinct pool.
const (
	pcNear = 0x1000
	pcHot  = 0x2000
	pcSeq  = 0x3000
	pcRand = 0x4000
)

// storeLine decides whether a line is a store target. Store-ness is a
// per-line property (programs write particular structures), so the dirty
// fraction of cache-resident data tracks the benchmark's store ratio
// instead of saturating towards 1 under repeated accesses.
func storeLine(line uint64, storeFrac float64) bool {
	x := line * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return float64(x&0xFFFF)/0x10000 < storeFrac
}

// Next fills op with the next trace record: a one-record Fill.
func (g *Gen) Next(op *Op) {
	var one [1]Op
	g.Fill(one[:])
	*op = one[0]
}

// Fill writes the next len(ops) records into ops: the records len(ops)
// calls to Next would give. The rng state, the non-memory gap carry, the
// sequential cursor and the recent-line ring's indices live in locals for
// the whole block and are written back once at the end; the rng state is a
// bare word drawn through rng.Step, so it can stay in a register.
func (g *Gen) Fill(ops []Op) {
	st := g.rs
	nonMemQ := g.nonMemQ
	seq := g.seqCursor
	recent := &g.recent
	recentLen, recentPos := g.recentLen, g.recentPos
	var (
		gap       = g.gapPerOp
		missFrac  = g.missFrac
		hotFrac   = g.b.HotFrac
		hotSeq    = g.b.HotFrac + g.b.SeqFrac
		storeFrac = g.b.StoreFrac
		base      = g.base
		footLines = g.footLines
		hotBase   = g.hotBase
		hotLines  = g.hotLines
	)
	var v uint64
	for i := range ops {
		op := &ops[i]
		// Non-memory gap: APKI memory ops per 1000 instructions.
		nonMemQ += gap
		nm := uint32(nonMemQ)
		nonMemQ -= float64(nm)
		op.NonMem = nm

		far := true
		if recentLen > 0 {
			st, v = rng.Step(st)
			far = rng.Unit(v) < missFrac
		}
		if !far {
			// Near reuse: hits the L1/L2 most of the time.
			st, v = rng.Step(st)
			op.Line = recent[rng.Below(v, uint64(recentLen))]
			st, v = rng.Step(st)
			op.PC = pcNear + rng.Below(v, 8)*4
			op.Store = storeLine(op.Line, storeFrac)
			continue
		}

		// Far access: chooses among hot / sequential / random components.
		st, v = rng.Step(st)
		x := rng.Unit(v)
		switch {
		case x < hotFrac && hotLines > 0:
			st, v = rng.Step(st)
			op.Line = hotBase + rng.Below(v, hotLines)
			op.PC = pcHot
		case x < hotSeq:
			op.Line = seq
			seq++
			if seq >= base+footLines {
				seq = base
			}
			op.PC = pcSeq
		default:
			st, v = rng.Step(st)
			op.Line = base + rng.Below(v, footLines)
			op.PC = pcRand
		}
		st, v = rng.Step(st)
		op.PC += rng.Below(v, 8) * 4
		op.Store = storeLine(op.Line, storeFrac)
		if recentLen < len(recent) {
			recent[recentLen] = op.Line
			recentLen++
		} else {
			recent[recentPos] = op.Line
			recentPos = (recentPos + 1) % len(recent)
		}
	}
	g.rs = st
	g.nonMemQ = nonMemQ
	g.seqCursor = seq
	g.recentLen, g.recentPos = recentLen, recentPos
}

// Rate builds the rate-mode workload for benchmark name: all cores run
// identical copies in disjoint address regions.
func Rate(name string, cores, scale int, seed uint64) (Workload, error) {
	b, err := ByName(name)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{Name: name}
	for c := 0; c < cores; c++ {
		w.Benchs = append(w.Benchs, b)
		w.Sources = append(w.Sources, NewGen(b, c, scale, seed))
	}
	return w, nil
}

// Mix builds mixed workload "MIXn". n in [1,8] follows Table 3; n in [9,38]
// are deterministically generated combinations of the 16 benchmarks (the
// paper evaluates 38 mixes but details only 8).
func Mix(n, cores, scale int, seed uint64) (Workload, error) {
	var names []string
	switch {
	case n >= 1 && n <= len(detailedMixes):
		names = detailedMixes[n-1]
	case n > len(detailedMixes) && n <= 38:
		names = generatedMix(n, cores)
	default:
		return Workload{}, fmt.Errorf("trace: mix index %d out of range [1,38]", n)
	}
	w := Workload{Name: fmt.Sprintf("MIX%d", n), IsMix: true}
	for c := 0; c < cores; c++ {
		b, err := ByName(names[c%len(names)])
		if err != nil {
			return Workload{}, err
		}
		w.Benchs = append(w.Benchs, b)
		w.Sources = append(w.Sources, NewGen(b, c, scale, seed))
	}
	return w, nil
}

// generatedMix deterministically samples `cores` benchmarks for mix n.
func generatedMix(n, cores int) []string {
	r := rng.New(uint64(n) * 0x517cc1b727220a95)
	perm := make([]int, len(Catalog))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]string, cores)
	for c := 0; c < cores; c++ {
		out[c] = Catalog[perm[c%len(perm)]].Name
	}
	return out
}

// MixClass summarises a mix as in Table 3, e.g. "6H+2M".
func MixClass(w Workload) string {
	h := 0
	for _, b := range w.Benchs {
		if b.HighIntensive() {
			h++
		}
	}
	m := len(w.Benchs) - h
	switch {
	case m == 0:
		return fmt.Sprintf("%dH", h)
	case h == 0:
		return fmt.Sprintf("%dM", m)
	default:
		return fmt.Sprintf("%dH+%dM", h, m)
	}
}

// RateNames returns the 16 rate-mode workload names in descending-MPKI
// (paper) order.
func RateNames() []string {
	out := make([]string, len(Catalog))
	for i, b := range Catalog {
		out[i] = b.Name
	}
	return out
}

// Single builds a workload with the benchmark on core 0 only (the remaining
// cores idle); used for the weighted-speedup single-program IPCs.
func Single(name string, cores, scale int, seed uint64) (Workload, error) {
	b, err := ByName(name)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{Name: name + "-single"}
	w.Benchs = append(w.Benchs, b)
	w.Sources = append(w.Sources, NewGen(b, 0, scale, seed))
	return w, nil
}

// Describe renders the catalog as a table (used by the tab2 experiment).
func Describe() string {
	var sb strings.Builder
	rows := append([]Benchmark(nil), Catalog...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].MPKI > rows[j].MPKI })
	fmt.Fprintf(&sb, "%-10s %8s %12s %6s\n", "Name", "MPKI", "Footprint", "Class")
	for _, b := range rows {
		class := "Medium"
		if b.HighIntensive() {
			class = "High"
		}
		fmt.Fprintf(&sb, "%-10s %8.1f %9d MB %6s\n", b.Name, b.MPKI, b.FootprintMB, class)
	}
	return sb.String()
}
