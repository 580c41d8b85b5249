package dramcache

import (
	"encoding/binary"
	"math/bits"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/fault"
)

// AlloyOpts selects the policy configuration of the Alloy-family cache.
type AlloyOpts struct {
	// Ideal turns the design into the Bandwidth-Optimized cache: hits move
	// exactly 64 B and every secondary operation is performed logically
	// without consuming DRAM-cache bandwidth.
	Ideal bool
	// Inclusive enforces inclusion of the on-chip hierarchy: writeback
	// probes are unnecessary, fills may never bypass, and evictions
	// back-invalidate the on-chip caches.
	Inclusive bool
	// BAB, when non-nil, is the fill/bypass policy (BAB or naive PB).
	BAB *core.BAB
	// NTC, when non-nil, enables the Neighboring Tag Cache.
	NTC *core.NTC
	// Predictor, when non-nil, is the MAP-I hit/miss predictor.
	Predictor *MAPI
	// Pred selects between MAP-I, a perfect oracle, and a static
	// always-predict-hit policy (ablations).
	Pred config.PredMode
	// WBAllocate installs writeback misses instead of forwarding them to
	// memory (requires a probe first, to recover a dirty victim).
	WBAllocate bool
	// DBP, when non-nil, replaces BAB with a dead-block-predictor bypass
	// (Section 9.2's prior-work class; see core.DeadBlock).
	DBP *core.DeadBlock
	// UpdateBypass selects the sampled update-bypass variant of the
	// dead-block policy (Young & Qureshi-style; requires DBP). See
	// updbypass.go.
	UpdateBypass bool
	// TTC, when non-nil, is a temporal tag cache: it records the demand
	// set's tag on every access (Section 9.4's prior-work class),
	// complementing the NTC's spatial-only policy.
	TTC *core.NTC
}

// Alloy is the direct-mapped Tag-And-Data DRAM cache (Qureshi & Loh,
// MICRO 2012) with the BEAR-paper policy knobs, expressed as a Controller
// over tadTags. Each set is one 72 B TAD; 28 consecutive sets share a 2 KB
// row, and each 80 B access also carries the next set's tag (consumed by
// the NTC).
type Alloy = Controller

// tadTags is the direct-mapped Tag-And-Data store: one line per set, tags
// resident in the DRAM array itself (so probes are bus transfers, charged
// by the Controller's Layout).
type tadTags struct {
	c *Controller

	sets       setIndex
	setsPerRow uint64
	channels   uint64
	banks      uint64

	// slots packs one width-bit little-endian slot per set, set's at bit
	// offset set*width, plus 8 bytes of tail padding so every slot can be
	// read with one 8-byte load. A slot holds (tag+1) | dirty for a resident
	// line, where the tag is line / sets (the set implies the remainder),
	// and zero for an empty set. The width is the least that holds the
	// widest tag+1 installed so far below the dirty bit, the slot's top bit,
	// rounded up to 64 past maxSlotBits; fit widens it. A new store is width
	// 0 over the bare 8-byte pad, so every set reads as empty.
	slots []byte
	width uint64
	dirty uint64 // the slot's top bit; 0 at width 0

	inclusive bool
}

// maxSlotBits is the widest slot that, at any bit shift within its first
// byte, still fits inside the 8-byte word loaded at that byte. Wider slots
// take a full 64 bits, which keeps every slot byte-aligned.
const maxSlotBits = 57

// fit widens the slots, if need be, so that v fits below the dirty bit.
func (t *tadTags) fit(v uint64) {
	if v >= t.dirty {
		t.widen(v)
	}
}

// widen moves the slots to the least width that holds v below the dirty
// bit. It re-encodes every resident slot into a new slab, moving its dirty
// bit to the new top bit, and drops the old slab.
func (t *tadTags) widen(v uint64) {
	width := uint64(bits.Len64(v)) + 1
	if width > maxSlotBits {
		width = 64
	}
	slots := make([]byte, (t.sets.n*width+7)/8+8)
	dirty := uint64(1) << (width - 1)
	if t.width > 0 { // at width 0 there is nothing to re-encode
		for set := range t.sets.n {
			if w := t.slot(set); w != 0 {
				if w&t.dirty != 0 {
					w = w&^t.dirty | dirty
				}
				putSlot(slots, width, set, w)
			}
		}
	}
	t.slots, t.width, t.dirty = slots, width, dirty
}

// slot reads set's slot: one unaligned 8-byte load at the slot's first
// byte, shifted down to the slot's first bit and masked to its width.
func (t *tadTags) slot(set uint64) uint64 {
	off := set * t.width
	return binary.LittleEndian.Uint64(t.slots[off>>3:]) >> (off & 7) & (t.dirty<<1 - 1)
}

// putSlot writes set's slot with one read-modify-write of the 8-byte word
// at the slot's first byte, leaving the neighbouring slots' bits as they
// were. It takes the slab and width rather than the tadTags so callers can
// hoist both out of a loop: the compiler cannot prove the store leaves t's
// fields alone, and would reload them for every slot.
func putSlot(slots []byte, width, set, v uint64) {
	off := set * width
	b := slots[off>>3:]
	sh := off & 7
	mask := (uint64(1)<<width - 1) << sh // all ones at width 64, where sh is 0
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^mask|v<<sh)
}

// line decodes set's slot into its resident line and state. An empty set
// decodes as line 0, the tag an empty set has always reported to the NTC
// and TTC.
func (t *tadTags) line(set uint64) (line uint64, valid, dirty bool) {
	w := t.slot(set)
	if w == 0 {
		return 0, false, false
	}
	return (w&^t.dirty-1)*t.sets.n + set, true, w&t.dirty != 0
}

// setIndex computes line / sets and line % sets without a divide: with
// m = ceil(2^64/sets), the high word of line*m is line/sets or one more,
// and a negative remainder (as a signed value) undoes the overshoot. For
// sets == 1 the reciprocal is 2^64, so m overflows to 0; wrap is all ones
// only then and adds back the quotient the lost 2^64 would have
// contributed (the line itself), so split needs no branch.
type setIndex struct{ n, m, wrap uint64 }

func newSetIndex(sets uint64) setIndex {
	s := setIndex{n: sets, m: ^uint64(0)/sets + 1}
	if sets == 1 {
		s.wrap = ^uint64(0)
	}
	return s
}

// split returns line's tag (quotient) and set (remainder).
func (s setIndex) split(line uint64) (q, r uint64) {
	q, _ = bits.Mul64(line, s.m)
	q += line & s.wrap
	r = line - q*s.n
	if int64(r) < 0 {
		r += s.n
		q--
	}
	return q, r
}

// locate maps a set to its DRAM coordinates. Consecutive sets share a row;
// consecutive rows rotate across channels, then banks.
func (t *tadTags) locate(set uint64) (Location, int) {
	rowUnit := set / t.setsPerRow
	ch := int(rowUnit % t.channels)
	rest := rowUnit / t.channels
	bk := int(rest % t.banks)
	row := rest / t.banks
	return Location{Ch: ch, Bk: bk, Row: row}, ch*int(t.banks) + bk
}

// Lookup implements TagStore.
func (t *tadTags) Lookup(_ uint64, line uint64) Probe {
	q, set := t.sets.split(line)
	loc, _ := t.locate(set)
	return Probe{Hit: t.slot(set)&^t.dirty == q+1, Loc: loc, Set: set, Block: line}
}

// Touch implements TagStore (direct-mapped: no replacement state).
func (t *tadTags) Touch(uint64) {}

// Fill implements TagStore: evict (back-invalidating under inclusion),
// install clean.
func (t *tadTags) Fill(_ uint64, line, _ uint64, _ bool) FillResult {
	q, set := t.sets.split(line)
	loc, _ := t.locate(set)
	fr := FillResult{Loc: loc}
	fr.VictimLine, fr.VictimValid, fr.VictimDirty = t.line(set)
	if fr.VictimValid {
		if t.inclusive {
			if h := t.c.hooks.OnBackInvalidate; h != nil && h(fr.VictimLine) {
				fr.VictimDirty = true // on-chip copy was dirty; forward it
			}
		} else if h := t.c.hooks.OnEvict; h != nil {
			h(fr.VictimLine)
		}
	}
	t.fit(q + 1)
	putSlot(t.slots, t.width, set, q+1)
	return fr
}

// WritebackHit implements TagStore. The engine calls it only on a hit, so
// the set's slot is never empty; setting the dirty bit touches only the
// byte that holds the slot's top bit.
func (t *tadTags) WritebackHit(line uint64) {
	_, set := t.sets.split(line)
	top := set*t.width + t.width - 1
	t.slots[top>>3] |= 1 << (top & 7)
}

// WritebackFill implements TagStore: evict, install dirty.
func (t *tadTags) WritebackFill(_ uint64, line uint64) FillResult {
	q, set := t.sets.split(line)
	loc, _ := t.locate(set)
	fr := FillResult{Loc: loc}
	fr.VictimLine, fr.VictimValid, fr.VictimDirty = t.line(set)
	if fr.VictimValid {
		if h := t.c.hooks.OnEvict; h != nil {
			h(fr.VictimLine)
		}
	}
	t.fit(q + 1)
	putSlot(t.slots, t.width, set, (q+1)|t.dirty)
	return fr
}

// Contains implements TagStore.
func (t *tadTags) Contains(line uint64) bool {
	q, set := t.sets.split(line)
	return t.slot(set)&^t.dirty == q+1
}

// Install implements TagStore.
func (t *tadTags) Install(lines ...uint64) {
	slots, width, dirty, sets := t.slots, t.width, t.dirty, t.sets
	for _, line := range lines {
		q, set := sets.split(line)
		if q+1 >= dirty {
			t.fit(q + 1)
			slots, width, dirty = t.slots, t.width, t.dirty
		}
		putSlot(slots, width, set, q+1)
	}
}

// ntcFilter is the NTC/TTC ProbeFilter over a TAD store. Every 80 B burst
// carries the next set's tag for free (a TAD is 72 B but the bus moves 16 B
// granules), which the NTC banks; the TTC additionally records the demand
// set's own tag.
type ntcFilter struct {
	t        *tadTags
	ntc, ttc *core.NTC
}

// Consult implements ProbeFilter: the first cache with a known answer wins.
// A known-absent answer skips the miss probe unless the resident line is
// dirty (the probe is then still needed to recover the victim's data).
func (f *ntcFilter) Consult(set, _, line uint64) (known, present, skipProbe bool) {
	_, gb := f.t.locate(set)
	for _, tc := range [2]*core.NTC{f.ntc, f.ttc} {
		if tc == nil || known {
			continue
		}
		ans := tc.Lookup(gb, set, line)
		if ans.Known {
			known, present = true, ans.Present
			if !ans.Present && (!ans.HasLine || !ans.LineDirty) {
				skipProbe = true
			}
		}
	}
	return known, present, skipProbe
}

// OnProbe implements ProbeFilter: deposit the neighbour tag the burst
// carried (NTC) and the demand set's own tag (TTC). The last TAD of a row
// has no neighbour in the burst.
func (f *ntcFilter) OnProbe(set, _ uint64) {
	_, gb := f.t.locate(set)
	if f.ntc != nil && set%f.t.setsPerRow != f.t.setsPerRow-1 {
		if n := set + 1; n < f.t.sets.n {
			line, valid, dirty := f.t.line(n)
			f.ntc.Deposit(gb, n, valid, line, dirty)
		}
	}
	if f.ttc != nil {
		line, valid, dirty := f.t.line(set)
		f.ttc.Deposit(gb, set, valid, line, dirty)
	}
}

// Sync implements ProbeFilter: keep entries coherent with a functional
// update to the set.
func (f *ntcFilter) Sync(set, _ uint64) {
	_, gb := f.t.locate(set)
	line, valid, dirty := f.t.line(set)
	if f.ntc != nil {
		f.ntc.Sync(gb, set, valid, line, dirty)
	}
	if f.ttc != nil {
		f.ttc.Sync(gb, set, valid, line, dirty)
	}
}

// babFill adapts the Bandwidth-Aware Bypass monitor (or naive PB) as a
// FillPolicy.
type babFill struct{ b *core.BAB }

func (f babFill) RecordAccess(set, _ uint64, miss bool) { f.b.RecordAccess(set, miss) }
func (f babFill) ShouldBypass(set, _, _ uint64) bool    { return f.b.ShouldBypass(set) }
func (f babFill) OnHit(uint64) bool                     { return false }
func (f babFill) OnFill(uint64, uint64, uint64, bool)   {}
func (f babFill) InsertMRU(uint64) bool                 { return true }

// dbpFill is the sampling dead-block-predictor bypass (Section 9.2's
// prior-work class): fills whose PC signature predicts a dead block are
// bypassed, and each line's first reuse writes an in-DRAM status bit back —
// the extra access the paper charges against dead-block schemes.
type dbpFill struct {
	d      *core.DeadBlock
	sig    []uint16 // signature of the fill that installed each set's line
	reused []uint64 // bitset: the line has been reused since its fill
}

func newDBPFill(d *core.DeadBlock, sets uint64) *dbpFill {
	return &dbpFill{d: d, sig: make([]uint16, sets), reused: make([]uint64, (sets+63)/64)}
}

func (f *dbpFill) isReused(set uint64) bool { return f.reused[set/64]&(1<<(set%64)) != 0 }
func (f *dbpFill) setReused(set uint64, v bool) {
	if v {
		f.reused[set/64] |= 1 << (set % 64)
	} else {
		f.reused[set/64] &^= 1 << (set % 64)
	}
}

func (f *dbpFill) RecordAccess(uint64, uint64, bool) {}

func (f *dbpFill) ShouldBypass(_, _, pc uint64) bool {
	return f.d.PredictDead(f.d.Signature(pc))
}

// OnHit marks the first reuse, which must update the in-DRAM reuse bit.
func (f *dbpFill) OnHit(set uint64) bool {
	if f.isReused(set) {
		return false
	}
	f.setReused(set, true)
	return true
}

// OnFill trains the predictor with the victim's outcome and re-tags the set
// with the installing PC's signature.
func (f *dbpFill) OnFill(set, _, pc uint64, hadVictim bool) {
	if hadVictim {
		f.d.Train(f.sig[set], f.isReused(set))
	}
	f.sig[set] = f.d.Signature(pc)
	f.setReused(set, false)
}

func (f *dbpFill) InsertMRU(uint64) bool { return true }

// alloyWB is the Alloy-family WritebackPolicy: inclusion or a set DCP bit
// guarantees presence (update directly); a clear DCP bit under no-allocate
// guarantees absence (forward directly); everything else probes.
type alloyWB struct{ inclusive, allocate bool }

func (w alloyWB) NeedsProbe(_ uint64, hit bool, pres core.Presence) (probe, presKnown bool) {
	if (w.inclusive || pres == core.PresPresent) && hit {
		return false, pres == core.PresPresent
	}
	// Under writeback-allocate a probe is still required before the fill,
	// to recover a possibly-dirty victim (Section 5.2).
	if pres == core.PresAbsent && !hit && !w.allocate {
		return false, true
	}
	return true, false
}

func (w alloyWB) Allocate() bool { return w.allocate }

// Alloy-family transfer sizes (bytes): every operation on the TAD array
// moves one 80 B burst (tag + data), except the idealised BW-Opt cache.
var alloyLayout = Layout{
	HitBytes:       80,
	UpdateBytes:    80,
	MissProbeBytes: 80,
	FillBytes:      80,
	WBUpdateBytes:  80,
	WBProbeBytes:   80,
}

// bwOptLayout is the Bandwidth-Optimized ideal: hits move exactly 64 B and
// all secondary operations are logical (zero-byte fills settle victims at
// issue; writebacks update state for free).
var bwOptLayout = Layout{HitBytes: 64}

// NewAlloy composes an Alloy-family cache with the given set count over the
// stacked-DRAM l4 and main memory mem.
func NewAlloy(name string, sets uint64, l4 *dram.Memory, mem *MainMemory, hooks Hooks, opts AlloyOpts) *Alloy {
	if sets == 0 {
		panic(fault.Invariantf("dramcache", "alloy with zero sets"))
	}
	cfg := l4.Config()
	lay := alloyLayout
	if opts.Ideal {
		lay = bwOptLayout
	}
	c := newController(name, lay, l4, mem, hooks)
	t := &tadTags{
		c:          c,
		sets:       newSetIndex(sets),
		setsPerRow: 28,
		channels:   uint64(cfg.Channels),
		banks:      uint64(cfg.Banks),
		slots:      make([]byte, 8),
		inclusive:  opts.Inclusive,
	}
	c.tags = t

	if opts.Ideal {
		// BW-Opt idealises only the L4 bus: no predictor, filter or
		// bypass policy participates.
		c.wb = directWB{}
		return c
	}

	c.wb = alloyWB{inclusive: opts.Inclusive, allocate: opts.WBAllocate}

	switch {
	case opts.Pred == config.PredPerfect:
		c.pred = oraclePred{}
	case opts.Pred == config.PredAlwaysHit:
		// No predictor: every miss serialises memory behind the probe.
	case opts.Predictor != nil:
		c.pred = mapiPred{opts.Predictor}
	}

	var fill FillPolicy
	switch {
	case opts.BAB != nil:
		fill = babFill{opts.BAB}
	case opts.DBP != nil && opts.UpdateBypass:
		fill = newUpdFill(opts.DBP, sets)
	case opts.DBP != nil:
		fill = newDBPFill(opts.DBP, sets)
	}
	if opts.Inclusive && fill != nil {
		// Inclusion forbids bypass but monitors still observe traffic.
		fill = noBypass{fill}
	}
	c.fill = fill

	if opts.NTC != nil || opts.TTC != nil {
		c.filter = &ntcFilter{t: t, ntc: opts.NTC, ttc: opts.TTC}
	}
	return c
}
