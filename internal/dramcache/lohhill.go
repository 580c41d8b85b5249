package dramcache

import (
	"bear/internal/dram"
	"bear/internal/fault"
	"bear/internal/sram"
	"bear/internal/stats"
)

// LHOpts configures the Loh-Hill-family cache.
type LHOpts struct {
	// MissMapLatency, when non-zero, models a MissMap: presence is known
	// without probing the DRAM array, at the cost of this many cycles on
	// every request (24, the L3 latency, per Section 7). The MissMap also
	// answers writeback presence.
	MissMapLatency uint64
	// PerfectPredictor models the Mostly-Clean cache: a perfect hit/miss
	// predictor dispatches predicted misses directly to memory with no
	// added latency; writebacks still require probes (no MissMap).
	PerfectPredictor bool
}

// LohHill is the 29-way set-associative tags-in-DRAM cache of Loh & Hill
// (MICRO 2011): each 2 KB row is one set, with three tag lines (192 B)
// followed by 29 data lines. Servicing a hit reads the tag lines, then the
// matching data line from the open row; LRU updates re-write a tag line.
type LohHill = Controller

// lhTags is the tags-in-DRAM store: functional tags+LRU in an sram.Cache
// (physically they live in the row's tag lines, charged via Layout), plus
// the optional MissMap presence tracker. Insertion position (LRU vs MRU)
// is the engine's to decide — DIP is a FillPolicy now, not a tag-store
// mechanic — so the store just obeys the mru argument.
type lhTags struct {
	c *Controller

	tags     *sram.Cache // functional tags+LRU (physically in DRAM)
	mm       *MissMap    // presence tracker (nil for Mostly-Clean)
	channels uint64
	banks    uint64

	lastNow uint64 // current request time, for MissMap-forced evictions
}

// locate maps a set (row) to DRAM coordinates.
func (t *lhTags) locate(set uint64) Location {
	ch := int(set % t.channels)
	rest := set / t.channels
	bk := int(rest % t.banks)
	return Location{Ch: ch, Bk: bk, Row: rest / t.banks}
}

// present answers the residency question the way the design would: via the
// MissMap when one exists, else via the tags (the Mostly-Clean perfect
// predictor).
func (t *lhTags) present(line uint64) bool {
	if t.mm != nil {
		return t.mm.Present(line)
	}
	_, ok := t.tags.Lookup(line)
	return ok
}

// Lookup implements TagStore. It also timestamps the request so that
// MissMap-forced evictions (which fire from inside fills) can issue their
// victim reads at the current time.
func (t *lhTags) Lookup(now uint64, line uint64) Probe {
	t.lastNow = now
	set := t.tags.SetIndex(line)
	return Probe{Hit: t.present(line), Loc: t.locate(set), Set: set, Block: line}
}

// Touch implements TagStore (LRU promotion on a demand hit).
func (t *lhTags) Touch(line uint64) { t.tags.Access(line, false) }

// fill installs a line in the tag array and the MissMap, routing evictions.
// mru=false inserts at the LRU position (DIP's bimodal throw-away inserts).
func (t *lhTags) fill(line uint64, mru bool) sram.Eviction {
	var ev sram.Eviction
	if mru {
		ev = t.tags.Fill(line, false, 0)
	} else {
		ev = t.tags.FillLRU(line, false, 0)
	}
	if ev.Valid {
		if t.mm != nil {
			t.mm.Clear(ev.Addr)
		}
		if t.c.hooks.OnEvict != nil {
			t.c.hooks.OnEvict(ev.Addr)
		}
	}
	if t.mm != nil {
		t.mm.Set(line)
	}
	return ev
}

// Fill implements TagStore.
func (t *lhTags) Fill(_ uint64, line, _ uint64, mru bool) FillResult {
	set := t.tags.SetIndex(line)
	ev := t.fill(line, mru)
	return FillResult{
		Loc:         t.locate(set),
		VictimLine:  ev.Addr,
		VictimValid: ev.Valid,
		VictimDirty: ev.Dirty,
	}
}

// WritebackHit implements TagStore.
func (t *lhTags) WritebackHit(line uint64) { t.tags.SetDirty(line) }

// WritebackFill implements TagStore (unreachable: LH designs never
// allocate on writeback misses).
func (t *lhTags) WritebackFill(uint64, uint64) FillResult {
	panic(fault.Invariantf("dramcache", "Loh-Hill writeback never allocates"))
}

// Contains implements TagStore.
func (t *lhTags) Contains(line uint64) bool {
	_, ok := t.tags.Lookup(line)
	return ok
}

// Install implements TagStore: a free functional fill used for pre-warming.
func (t *lhTags) Install(lines ...uint64) {
	for _, line := range lines {
		if _, ok := t.tags.Lookup(line); !ok {
			t.fill(line, true)
		}
	}
}

// missMapEvict handles the forced eviction of a line whose MissMap segment
// entry was replaced: the line must leave the DRAM cache (its presence can
// no longer be tracked). A dirty casualty is recovered and written to
// memory, costing a victim read — the MissMap's hidden tax.
func (t *lhTags) missMapEvict(line uint64) {
	ln, ok := t.tags.Invalidate(line)
	if !ok {
		return
	}
	if t.c.hooks.OnEvict != nil {
		t.c.hooks.OnEvict(line)
	}
	if ln.Dirty {
		set := t.tags.SetIndex(line)
		t.c.l4Read(t.lastNow, t.locate(set), stats.VictimRead, lhDataBytes, t.c.mem.VictimFwd(line, 0))
	}
}

// Loh-Hill transfer sizes (bytes).
const (
	lhTagBytes  = 192 // three tag lines
	lhDataBytes = 64
	lhFillBytes = 128 // data line + the tag line it lives in
)

// lhLayout: hits chain a tag-line read and a data read from the open row,
// then unconditionally re-write LRU state (footnote 3's replacement-update
// bloat); misses fill without probing (presence was already answered).
var lhLayout = Layout{
	HitBytes:        lhDataBytes,
	TagBytes:        lhTagBytes,
	UpdateBytes:     lhDataBytes,
	UpdateAlways:    true,
	FillBytes:       lhFillBytes,
	VictimReadBytes: lhDataBytes,
	WBUpdateBytes:   lhFillBytes,
	WBProbeBytes:    lhTagBytes,
}

// NewLohHill composes an LH-family cache with the given set (row) count.
// Designs with a MissMap (MissMapLatency > 0) get a capacity-bounded
// presence tracker (see the sizing note at its construction).
func NewLohHill(name string, sets uint64, ways int, l4 *dram.Memory, mem *MainMemory, hooks Hooks, opts LHOpts) *LohHill {
	cfg := l4.Config()
	c := newController(name, lhLayout, l4, mem, hooks)
	c.lay.ExtraLatency = opts.MissMapLatency
	t := &lhTags{
		c:        c,
		tags:     sram.New(sets, ways),
		channels: uint64(cfg.Channels),
		banks:    uint64(cfg.Banks),
	}
	c.tags = t
	if opts.MissMapLatency > 0 {
		// The BEAR paper idealises the MissMap ("same latency as the LLC",
		// no capacity effects), so it is sized generously here — one
		// segment entry per 8 cache lines — while keeping real capacity
		// semantics (segment evictions force line evictions) so the
		// structure remains testable and sparse workloads still pay for
		// poor segment density.
		segments := sets * uint64(ways) / 8
		if segments < 64 {
			segments = 64
		}
		t.mm = NewMissMap(segments, 16, 64, t.missMapEvict)
		// The MissMap answers writeback presence: no probe needed.
		c.wb = directWB{}
	} else {
		// Mostly-Clean: writebacks must probe the tag lines unless a DCP
		// bit answers.
		c.wb = probeWB{}
	}
	return c
}
