package dramcache

import (
	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/sram"
)

// Banshee is the page-grained DRAM cache of Yu et al. ("Banshee:
// Bandwidth-efficient DRAM caching via software/hardware cooperation"),
// expressed as a Controller composition over blockTags: 4 KB frames with
// SRAM/TLB-resident tags, frequency-based replacement as the FillPolicy
// (pages are admitted only once they prove reuse, throttling page-fill
// bloat), and a TLB-like tag buffer as the ProbeFilter. Reads never probe
// the DRAM array — the mapping is on chip — but a dirty writeback whose
// page mapping is not buffered pays the dirty-probe flow: a tag probe in
// the DRAM array resolves its presence (the hybrid tag-probe path of the
// paper, bansheeWB below).
type Banshee = Controller

// fbrFill approximates Banshee's frequency-based replacement as a pure
// FillPolicy: a direct-mapped table of saturating per-page counters,
// bumped on each miss to the page; the page is admitted (filled) only once
// its counter reaches the threshold, and admission resets the counter. The
// full FBR scheme compares the candidate's counter against the victim's —
// the threshold form keeps the policy a stateless-against-the-tag-store
// composition (DESIGN.md records the substitution), and preserves the
// property that matters for bandwidth: single-touch pages never pay a
// whole-page fill.
type fbrFill struct {
	ctr       []uint8
	mask      uint64
	threshold uint8
}

// newFBRFill builds a counter table of at least entries slots (rounded up
// to a power of two).
func newFBRFill(entries uint64, threshold uint8) *fbrFill {
	n := uint64(1024)
	for n < entries {
		n <<= 1
	}
	return &fbrFill{ctr: make([]uint8, n), mask: n - 1, threshold: threshold}
}

// idx mixes the page address (Fibonacci hashing) so striding page streams
// spread over the table instead of aliasing a few slots.
func (f *fbrFill) idx(page uint64) uint64 {
	return (page * 0x9e3779b97f4a7c15) >> 32 & f.mask
}

func (f *fbrFill) RecordAccess(_, page uint64, miss bool) {
	if miss {
		if i := f.idx(page); f.ctr[i] < ^uint8(0) {
			f.ctr[i]++
		}
	}
}

// ShouldBypass admits the page only once its miss counter proves reuse.
func (f *fbrFill) ShouldBypass(_, page, _ uint64) bool {
	return f.ctr[f.idx(page)] < f.threshold
}

func (f *fbrFill) OnHit(uint64) bool { return false }

// OnFill resets the admitted page's counter: it must re-earn residency
// after eviction.
func (f *fbrFill) OnFill(_, page, _ uint64, _ bool) { f.ctr[f.idx(page)] = 0 }

func (f *fbrFill) InsertMRU(uint64) bool { return true }

// bansheeTB is the TLB-resident tag buffer as a ProbeFilter: a small SRAM
// cache of page mappings known to be resident. It trains on hits and fills
// (Sync/OnProbe fire exactly there) and is invalidated by blockTags on page
// eviction, so a buffered mapping is always truthful — which is what lets
// bansheeWB settle buffered writebacks without a probe.
type bansheeTB struct {
	pt *blockTags
	tb *sram.Cache
}

// Consult implements ProbeFilter: a buffered mapping guarantees the page is
// resident. Presence of the demand line is answered from the page's valid
// bits (ground truth — the tag state is on chip in this design).
func (f *bansheeTB) Consult(_, page, line uint64) (known, present, skipProbe bool) {
	if _, ok := f.tb.Lookup(page); !ok {
		return false, false, false
	}
	return true, f.pt.Contains(line), false
}

// insert deposits a page mapping, promoting an already-buffered one; pages
// not actually resident are dropped instead (a probe that found the page
// absent must not create a false mapping).
func (f *bansheeTB) insert(page uint64) {
	if !f.pt.resident(page) {
		f.tb.Invalidate(page)
		return
	}
	if !f.tb.Access(page, false) {
		f.tb.Fill(page, false, 0)
	}
}

// OnProbe implements ProbeFilter (hits and writeback probes deposit).
func (f *bansheeTB) OnProbe(_, page uint64) { f.insert(page) }

// Sync implements ProbeFilter (fills and writeback updates deposit).
func (f *bansheeTB) Sync(_, page uint64) { f.insert(page) }

// invalidate is blockTags' eviction coherence hook.
func (f *bansheeTB) invalidate(page uint64) { f.tb.Invalidate(page) }

// bansheeWB resolves writebacks through the tag buffer: a buffered mapping
// answers presence on chip (no probe — the tag-store answer is truthful),
// while an unbuffered dirty line pays the dirty-probe flow, reading the
// in-array tags before the update or forward resolves.
type bansheeWB struct {
	tb   *sram.Cache
	amap sram.Mapper
}

func (w bansheeWB) NeedsProbe(line uint64, _ bool, _ core.Presence) (probe, presKnown bool) {
	if _, ok := w.tb.Lookup(w.amap.Block(line)); ok {
		return false, false
	}
	return true, false
}

func (w bansheeWB) Allocate() bool { return false }

// bansheeLayout: hits and demand fills move 64 B lines; FillBytes scales by
// FillResult.FillLines to a whole page on page admission, and
// VictimReadBytes by the victim's dirty mask (partial-page writeback).
// Reads never probe (tags on chip); unbuffered writebacks pay a 64 B
// dirty probe.
var bansheeLayout = Layout{
	HitBytes:        64,
	FillBytes:       64,
	VictimReadBytes: 64,
	WBUpdateBytes:   64,
	WBProbeBytes:    64,
}

// NewBanshee composes a Banshee cache of `lines` data lines grouped into
// pages of pageLines lines, with the given page-set associativity.
func NewBanshee(name string, lines, pageLines uint64, ways int, l4 *dram.Memory, mem *MainMemory, hooks Hooks) *Banshee {
	c := newController(name, bansheeLayout, l4, mem, hooks)
	pt := newBlockTags(c, lines, pageLines, ways, true)
	c.tags = pt

	pages := lines / pageLines
	// The tag buffer models TLB reach: far smaller than the page count, so
	// cold/streaming writebacks miss it and pay the dirty probe.
	tbSets := pages / 64
	if tbSets < 16 {
		tbSets = 16
	}
	tb := sram.New(tbSets, 8)
	filter := &bansheeTB{pt: pt, tb: tb}
	pt.onEvictBlock = filter.invalidate
	c.filter = filter
	c.wb = bansheeWB{tb: tb, amap: pt.amap}
	// Frequency table: a few slots per page frame keeps candidate pages
	// (not yet resident) tracked alongside resident ones.
	c.fill = newFBRFill(4*pages, 2)
	return c
}
