package dramcache

import (
	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/sram"
)

// TicToc is the DRAM-aware tag-check design of Young et al. ("TicToc:
// enabling bandwidth-efficient DRAM caching for both hits and misses"),
// composed over blockTags in demand-fill mode: page-grained frames filled
// line-at-a-time (no page-fill bloat), tags embedded alongside the data
// (TIC — a hit's 64 B read carries its own tag check, so hits pay no
// separate probe), and an SRAM tag cache of recently verified page
// mappings (TOC) covering the miss side: while a mapping is cached, miss
// tag checks are answered on chip and the DRAM probe is skipped. A tag-
// cache miss pays the in-array tag check — serialising the probe on reads
// and the dirty-probe on writebacks — which is the residual tag bandwidth
// the design trades against Alloy's every-access probes.
type TicToc = Controller

// tocFilter is the tag cache as a ProbeFilter. Entries are page mappings
// whose tag check was recently resolved (by a probe, a fill or a
// writeback update); the aux byte records the verdict — resident or
// verified-absent. Both answers skip the miss probe; residency answers
// consult the blockTags' own valid bits for the demand line, so answers are
// always truthful. blockTags invalidates a mapping when its page is
// evicted.
type tocFilter struct {
	pt *blockTags
	tc *sram.Cache
}

const (
	tocAbsent   = uint8(0)
	tocResident = uint8(1)
)

// Consult implements ProbeFilter.
func (f *tocFilter) Consult(_, page, line uint64) (known, present, skipProbe bool) {
	ln, ok := f.tc.Lookup(page)
	if !ok {
		return false, false, false
	}
	if ln.Aux == tocAbsent {
		return true, false, true
	}
	return true, f.pt.Contains(line), true
}

// record caches the page's current verdict, promoting an existing entry.
func (f *tocFilter) record(page uint64) {
	aux := tocAbsent
	if f.pt.resident(page) {
		aux = tocResident
	}
	if f.tc.Access(page, false) {
		f.tc.SetAux(page, aux)
		return
	}
	f.tc.Fill(page, false, aux)
}

// OnProbe implements ProbeFilter: a completed probe verified the mapping.
func (f *tocFilter) OnProbe(_, page uint64) { f.record(page) }

// Sync implements ProbeFilter: fills and writeback updates re-verify.
func (f *tocFilter) Sync(_, page uint64) { f.record(page) }

// invalidate is blockTags' eviction coherence hook.
func (f *tocFilter) invalidate(page uint64) { f.tc.Invalidate(page) }

// tictocWB resolves writebacks through the tag cache: a cached mapping
// (either verdict) settles the writeback on chip — the engine then trusts
// the tag store's truthful hit/FreeFill/absent answer — while an uncached
// mapping pays the in-array tag check before resolving.
type tictocWB struct {
	f    *tocFilter
	amap sram.Mapper
}

func (w tictocWB) NeedsProbe(line uint64, _ bool, _ core.Presence) (probe, presKnown bool) {
	_, cached := w.f.tc.Lookup(w.amap.Block(line))
	return !cached, false
}

func (w tictocWB) Allocate() bool { return false }

// tictocLayout: hits move one 64 B line whose spare bits carry the tag
// (no separate tag read); misses whose mapping is not tag-cached pay a
// 64 B in-array tag check, as do unresolved writebacks. Fills are demand
// lines; victim recovery scales to the dirty mask.
var tictocLayout = Layout{
	HitBytes:        64,
	MissProbeBytes:  64,
	FillBytes:       64,
	VictimReadBytes: 64,
	WBUpdateBytes:   64,
	WBProbeBytes:    64,
}

// NewTicToc composes a TicToc cache of `lines` data lines grouped into
// pages of pageLines lines, with the given page-set associativity.
func NewTicToc(name string, lines, pageLines uint64, ways int, l4 *dram.Memory, mem *MainMemory, hooks Hooks) *TicToc {
	c := newController(name, tictocLayout, l4, mem, hooks)
	pt := newBlockTags(c, lines, pageLines, ways, false)
	c.tags = pt

	pages := lines / pageLines
	// The tag cache covers a fraction of the page frames (the paper's TOC
	// is a small SRAM): hot mappings stay verified, cold ones re-check.
	tcSets := pages / 16
	if tcSets < 16 {
		tcSets = 16
	}
	filter := &tocFilter{pt: pt, tc: sram.New(tcSets, 8)}
	pt.onEvictBlock = filter.invalidate
	c.filter = filter
	c.wb = tictocWB{f: filter, amap: pt.amap}
	return c
}
