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
	// read with one 8-byte load. A slot holds code | dirty for a resident
	// line, where tags[code] is the line's tag, line / sets (the set implies
	// the remainder), and zero for an empty set. The dirty bit is the slot's
	// top bit, so 2^(width-1) - 1 codes fit below it; widen makes room when
	// they run out. A new store is width 0 over the bare 8-byte pad, so
	// every set reads as empty.
	slots []byte
	width uint64
	dirty uint64 // the slot's top bit; 0 at width 0

	// tags is the dictionary of installed tags, indexed by code. tags[0] is
	// ^0, which no tag equals (a line is below 2^58), so an empty set misses
	// with the same one compare as any other. codes maps each tag in tags
	// back to its code; only installs consult it.
	tags  []uint64
	codes map[uint64]uint64

	inclusive bool
}

// code returns q's code, giving q the next one if it has none. When every
// code below the dirty bit is taken, widen first makes room, which replaces
// the slab: callers read t.slots and t.width only after code returns.
func (t *tadTags) code(q uint64) uint64 {
	if c, ok := t.codes[q]; ok {
		return c
	}
	if uint64(len(t.tags)) >= t.dirty {
		t.widen(1)
	}
	c := uint64(len(t.tags))
	t.tags = append(t.tags, q)
	t.codes[q] = c
	return c
}

// widen makes room for extra new codes. It drops the codes no slot holds,
// renumbers the rest in their old order, and grows the width one bit at a
// time while the live codes fill at least half the 2^(width-1) - 1 codes
// below the dirty bit, or the extra codes would not fit beside them. Then
// it re-encodes every resident slot into a new slab, moving its dirty bit
// to the new top bit, and drops the old slab.
//
// So about half the codes are free after each call, and a stream of new
// tags pays one pass over the sets per that many tags. For one new code
// the space grows only while it holds at most 2 x the live tags, and a
// store holds at most sets live tags, so installs keep the space within
// 4 x sets and the width within bits.Len64(4*sets) bits: below 57 for any
// slab that fits in memory.
func (t *tadTags) widen(extra uint64) {
	renum := make([]uint64, len(t.tags)) // old code -> new code; 0 for a dead one
	if t.width > 0 {                     // at width 0 every set is empty
		for set := range t.sets.n {
			renum[t.slot(set)&^t.dirty] = 1
		}
	}
	live := uint64(0)
	for c := 1; c < len(t.tags); c++ {
		q := t.tags[c]
		if renum[c] == 0 {
			delete(t.codes, q)
			continue
		}
		live++
		renum[c], t.tags[live], t.codes[q] = live, q, live
	}
	t.tags = t.tags[:live+1]

	width := max(t.width, 1)
	for space := uint64(1) << (width - 1); 2*live >= space || live+extra >= space; space <<= 1 {
		width++
	}
	slots := make([]byte, (t.sets.n*width+7)/8+8)
	dirty := uint64(1) << (width - 1)
	if t.width > 0 {
		for set := range t.sets.n {
			if w := t.slot(set); w != 0 {
				v := renum[w&^t.dirty]
				if w&t.dirty != 0 {
					v |= dirty
				}
				putSlot(slots, width, set, v)
			}
		}
	}
	t.slots, t.width, t.dirty = slots, width, dirty
}

// slot reads set's slot: one unaligned 8-byte load at the slot's first
// byte, shifted down to the slot's first bit and masked to its width. A
// slot of up to 57 bits ends inside that word at any shift, and no store
// whose slab fits in memory needs more (see widen).
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
	mask := (uint64(1)<<width - 1) << sh
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
	return t.tags[w&^t.dirty]*t.sets.n + set, true, w&t.dirty != 0
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
	return Probe{Hit: t.tags[t.slot(set)&^t.dirty] == q, Loc: loc, Set: set, Block: line}
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
	c := t.code(q)
	putSlot(t.slots, t.width, set, c)
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
	c := t.code(q)
	putSlot(t.slots, t.width, set, c|t.dirty)
	return fr
}

// Contains implements TagStore.
func (t *tadTags) Contains(line uint64) bool {
	q, set := t.sets.split(line)
	return t.tags[t.slot(set)&^t.dirty] == q
}

// Install implements TagStore.
func (t *tadTags) Install(lines ...uint64) {
	for _, line := range lines {
		q, set := t.sets.split(line)
		c := t.code(q)
		putSlot(t.slots, t.width, set, c)
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
		tags:       []uint64{^uint64(0)},
		codes:      make(map[uint64]uint64),
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
