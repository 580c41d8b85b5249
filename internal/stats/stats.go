// Package stats collects simulation metrics: the Bloat Factor and its
// six-way breakdown (Section 2.3 of the paper), DRAM-cache hit/miss
// latencies, hit rates, and end-to-end performance figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Category identifies a source of DRAM-cache bus traffic. HitProbe is the
// only category that carries useful bytes; everything else is bandwidth
// bloat (Section 2.3).
type Category int

const (
	// HitProbe is the read that services an LLC miss from the DRAM cache.
	HitProbe Category = iota
	// MissProbe is the tag+data read performed to detect a cache miss.
	MissProbe
	// MissFill is the write that installs a missed line.
	MissFill
	// WBProbe is the tag read performed on a dirty LLC eviction.
	WBProbe
	// WBUpdate is the write that refreshes a line already present.
	WBUpdate
	// WBFill is the write that allocates a line on a writeback miss
	// (absent in the baseline no-allocate policy).
	WBFill
	// VictimRead is the read of a dirty victim's data prior to its
	// eviction to memory, where it is not already covered by a probe
	// (TIS / Sector / Loh-Hill dirty replacements).
	VictimRead
	// ReplUpdate is the replacement-state (LRU) update write performed on
	// hits by set-associative tags-in-DRAM designs (Loh-Hill; footnote 3
	// of the paper).
	ReplUpdate
	numCategories
)

var categoryNames = [numCategories]string{
	"Hit", "MissProbe", "MissFill", "WBProbe", "WBUpdate", "WBFill", "Victim", "ReplUpd",
}

func (c Category) String() string { return categoryNames[c] }

// Categories lists all bus-traffic categories in display order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// L4 accumulates DRAM-cache statistics for one simulation.
type L4 struct {
	Bytes [numCategories]uint64

	ReadHits   uint64 // LLC read misses serviced by the DRAM cache
	ReadMisses uint64 // LLC read misses serviced by main memory
	WBHits     uint64 // writeback probes (or DCP) that found the line
	WBMisses   uint64
	Bypasses   uint64 // miss fills skipped by a bypass policy
	Fills      uint64

	// Latency sums in cycles, from LLC-miss issue to data return.
	HitLatSum  uint64
	MissLatSum uint64

	// Latency distributions (tail behaviour under queuing).
	HitHist  Histogram
	MissHist Histogram

	// NTC bookkeeping.
	NTCProbesSaved  uint64 // miss probes avoided by an NTC "absent" answer
	NTCParallelSqsh uint64 // wasteful parallel memory accesses squashed
	DCPProbesSaved  uint64 // writeback probes avoided by the DCP bit

	// Predictor bookkeeping.
	PredHits, PredMisses uint64 // correct / incorrect MAP-I predictions
}

// AddBytes charges n bus bytes to category c.
func (s *L4) AddBytes(c Category, n int) { s.Bytes[c] += uint64(n) }

// Reads returns total LLC read misses that consulted the L4.
func (s *L4) Reads() uint64 { return s.ReadHits + s.ReadMisses }

// HitRate returns the DRAM-cache read hit rate in [0,1].
func (s *L4) HitRate() float64 {
	if s.Reads() == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads())
}

// TotalBytes returns all bytes moved on the DRAM-cache bus.
func (s *L4) TotalBytes() uint64 {
	var t uint64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// UsefulBytes returns the denominator of the Bloat Factor: 64 B for every
// line delivered from the DRAM cache to the processor.
func (s *L4) UsefulBytes() uint64 { return s.ReadHits * 64 }

// BloatFactor returns total bytes / useful bytes (Equation 1). An idealised
// cache has Bloat Factor 1. Returns 0 when the cache serviced nothing.
func (s *L4) BloatFactor() float64 {
	u := s.UsefulBytes()
	if u == 0 {
		return 0
	}
	return float64(s.TotalBytes()) / float64(u)
}

// CategoryFactor returns category c's contribution to the Bloat Factor.
func (s *L4) CategoryFactor(c Category) float64 {
	u := s.UsefulBytes()
	if u == 0 {
		return 0
	}
	return float64(s.Bytes[c]) / float64(u)
}

// AvgHitLatency returns the mean L4 hit latency in cycles.
func (s *L4) AvgHitLatency() float64 {
	if s.ReadHits == 0 {
		return 0
	}
	return float64(s.HitLatSum) / float64(s.ReadHits)
}

// AvgMissLatency returns the mean L4 miss latency in cycles.
func (s *L4) AvgMissLatency() float64 {
	if s.ReadMisses == 0 {
		return 0
	}
	return float64(s.MissLatSum) / float64(s.ReadMisses)
}

// AvgLatency returns the mean latency over all L4 reads.
func (s *L4) AvgLatency() float64 {
	if s.Reads() == 0 {
		return 0
	}
	return float64(s.HitLatSum+s.MissLatSum) / float64(s.Reads())
}

// Reset zeroes every counter (used at the warm-up boundary).
func (s *L4) Reset() { *s = L4{} }

// Run holds the end-to-end results of one simulation.
type Run struct {
	Design    string
	Workload  string
	Cycles    uint64   // execution time (max over cores)
	CoreInstr []uint64 // instructions retired per core
	CoreIPC   []float64
	L4        L4

	// Hierarchy counters.
	L3Accesses, L3Misses uint64
	L3Writebacks         uint64
	Instructions         uint64
	MemReadBytes         uint64 // main-memory bus read bytes
	MemWriteBytes        uint64
}

// IPC returns aggregate instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MPKI returns L3 misses per thousand instructions.
func (r *Run) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.L3Misses) / float64(r.Instructions)
}

// L3MissRate returns the fraction of L3 accesses that missed, in [0,1].
func (r *Run) L3MissRate() float64 {
	if r.L3Accesses == 0 {
		return 0
	}
	return float64(r.L3Misses) / float64(r.L3Accesses)
}

// Speedup returns baseline execution time divided by r's execution time for
// rate-mode workloads (equal work per run).
func (r *Run) Speedup(baseline *Run) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// WeightedSpeedup implements Equation 2: the sum over cores of
// IPC_shared / IPC_single, where single[i] is the IPC of the benchmark on
// core i when run alone on the same memory system.
func (r *Run) WeightedSpeedup(single []float64) float64 {
	var ws float64
	for i, ipc := range r.CoreIPC {
		if i < len(single) && single[i] > 0 {
			ws += ipc / single[i]
		}
	}
	return ws
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// BreakdownString renders the bloat breakdown as "cat=f" pairs.
func (s *L4) BreakdownString() string {
	var b strings.Builder
	for _, c := range Categories() {
		if s.Bytes[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s=%.2f ", c, s.CategoryFactor(c))
	}
	return strings.TrimSpace(b.String())
}

// Histogram is a power-of-two-bucketed latency histogram: bucket i counts
// values in [2^i, 2^(i+1)).
type Histogram struct {
	Buckets [32]uint64
	N       uint64
}

// Add records one value.
func (h *Histogram) Add(v uint64) {
	b := 0
	for x := v; x > 1 && b < len(h.Buckets)-1; x >>= 1 {
		b++
	}
	h.Buckets[b]++
	h.N++
}

// Percentile returns an upper bound for the p-th percentile (p in [0,1]).
func (h *Histogram) Percentile(p float64) uint64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(p * float64(h.N))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			return 1 << uint(i+1)
		}
	}
	return 1 << 31
}

// Hit records a serviced DRAM-cache hit with its latency.
func (s *L4) Hit(lat uint64) {
	s.ReadHits++
	s.HitLatSum += lat
	s.HitHist.Add(lat)
}

// Miss records a miss serviced by main memory with its latency.
func (s *L4) Miss(lat uint64) {
	s.ReadMisses++
	s.MissLatSum += lat
	s.MissHist.Add(lat)
}
