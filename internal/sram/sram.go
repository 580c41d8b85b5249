// Package sram models on-chip SRAM caches: set-associative, true-LRU,
// write-back/write-allocate, with a per-line auxiliary byte used by the
// hierarchy for architectural state such as the BEAR DCP bit. Unlike the
// DRAM cache, SRAM caches have dedicated ports, so this model is purely
// functional; lookup latency is charged by the hierarchy.
//
// The line state is stored struct-of-arrays: parallel tags/meta/aux/lru
// slabs instead of a []Line array-of-structs. Set scans — the per-access
// inner loop of every simulated cache level — become branch-light linear
// sweeps over contiguous uint64 tag words: invalid ways hold a sentinel tag
// that can never match a real line address, so the match loop tests one
// word per way and touches meta/aux/lru only on the way it selects.
//
// On top of the layout, a hint table keyed by the address's low set bits
// records the slab index that last hit or filled there. Accesses check the
// hinted tag word before the sweep, so the common repeat-hit case (an L1
// hit streaming over the same few lines) touches exactly one tag word, and
// the probe is small enough to inline into every access path. The hint is
// purely an accelerator: it is verified by tag comparison before use — a
// line address can only ever match in the one set it maps to, so a hint
// aliased by another set (non-power-of-two geometries share low-bit keys)
// or gone stale merely falls through to the full sweep. It can never
// change which way an operation selects.
//
// The same structure also backs internal/dramcache's on-chip tag store —
// keyed by block address through a Mapper, it serves Tags-In-SRAM,
// the Sector Cache, Banshee and TicToc — and the Loh-Hill MissMap.
package sram

import (
	"math/bits"

	"bear/internal/fault"
)

// Line is one cache line's metadata. Addr is the full line address (byte
// address >> 6) so evictions can be routed without tag reconstruction.
type Line struct {
	Addr  uint64
	Valid bool
	Dirty bool
	Aux   uint8
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Addr  uint64
	Valid bool
	Dirty bool
	Aux   uint8
}

// tagInvalid marks an empty way in the tags slab. Line addresses are byte
// addresses >> 6, so the all-ones word can never collide with a real line;
// Fill and Install enforce that.
const tagInvalid = ^uint64(0)

// meta slab bits.
const (
	metaValid = 1 << 0
	metaDirty = 1 << 1
)

// Cache is a set-associative cache keyed by line address. The zero value is
// not usable; call New.
type Cache struct {
	sets     uint64
	setMask  uint64 // sets-1 when sets is a power of two
	pow2     bool
	ways     int
	waysU    uint64   // ways as uint64: saves a conversion inside find's budget
	tags     []uint64 // sets*ways, row-major; tagInvalid when the way is empty
	meta     []uint8  // valid/dirty bits
	aux      []uint8  // caller-owned auxiliary byte
	lru      []uint32 // per-line recency stamps
	hint     []uint32 // slab index of the last hit or fill, keyed by addr&hintMask
	hintMask uint64   // low set bits: sets-1 rounded down to a power of two, minus aliasing
	clock    uint32
}

// New creates a cache with the given geometry. sets must be > 0 and ways in
// [1, 64].
func New(sets uint64, ways int) *Cache {
	if sets == 0 || ways <= 0 || ways > 64 {
		panic(fault.Invariantf("sram", "invalid geometry sets=%d ways=%d", sets, ways))
	}
	n := sets * uint64(ways)
	c := &Cache{
		sets:    sets,
		setMask: sets - 1,
		pow2:    sets&(sets-1) == 0,
		ways:    ways,
		waysU:   uint64(ways),
		tags:    make([]uint64, n),
		meta:    make([]uint8, n),
		aux:     make([]uint8, n),
		lru:     make([]uint32, n),
	}
	c.hintMask = 1<<(bits.Len64(sets)-1) - 1
	c.hint = make([]uint32, c.hintMask+1)
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() uint64 { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetIndex returns the set an address maps to. Power-of-two set counts (the
// overwhelmingly common geometry) index with a mask instead of a 64-bit
// modulo — base sits inside every set sweep.
func (c *Cache) SetIndex(addr uint64) uint64 {
	if c.pow2 {
		return addr & c.setMask
	}
	return addr % c.sets
}

func (c *Cache) base(addr uint64) uint64 { return c.SetIndex(addr) * uint64(c.ways) }

// find returns the slab index of addr's way, or (0, false). The hint table
// is probed first: a repeat hit to the hinted slab index touches one tag
// word, and find is small enough to inline into every access path. find
// does not train the hint itself (the store would burst the inlining
// budget); hit paths that learned a new location store it back.
func (c *Cache) find(addr uint64) (uint64, bool) {
	if h := uint64(c.hint[addr&c.hintMask]); c.tags[h] == addr {
		return h, true
	}
	set := addr & c.setMask
	if !c.pow2 {
		set = addr % c.sets
	}
	// The sweep is store-free — hit paths train the hint themselves —
	// which keeps find inside the inlining budget. One bounds check for
	// the subslice; the range sweep is check-free.
	i := set * c.waysU
	tags := c.tags[i : i+c.waysU]
	for w := range tags {
		if tags[w] == addr {
			return i + uint64(w), true
		}
	}
	return 0, false
}

func (c *Cache) touch(i uint64) {
	if c.clock == ^uint32(0) {
		c.rescale()
	}
	c.clock++
	c.lru[i] = c.clock
}

// lineAt materialises the AoS view of slab index i (valid ways only).
func (c *Cache) lineAt(i uint64) Line {
	return Line{Addr: c.tags[i], Valid: true, Dirty: c.meta[i]&metaDirty != 0, Aux: c.aux[i]}
}

// sortWays insertion-sorts the ways of the set at base by stamp (ways is
// small) and returns them in ascending recency order.
func (c *Cache) sortWays(base uint64) (order [64]int) {
	n := c.ways
	for w := 0; w < n; w++ {
		order[w] = w
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && c.lru[base+uint64(order[j])] < c.lru[base+uint64(order[j-1])]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// rescale compacts recency stamps when the clock is about to overflow,
// renumbering each set's ways by their relative order so LRU decisions are
// unchanged.
func (c *Cache) rescale() {
	for s := uint64(0); s < c.sets; s++ {
		base := s * uint64(c.ways)
		order := c.sortWays(base)
		for rank := 0; rank < c.ways; rank++ {
			c.lru[base+uint64(order[rank])] = uint32(rank)
		}
	}
	c.clock = uint32(c.ways)
}

// Lookup checks for addr without changing replacement state. It returns the
// line's metadata and whether it was present. A hit still retrains the way
// hint — the hint is not replacement state, and probe-only flows (tag-store
// presence checks) are exactly where a trained hint pays for itself.
func (c *Cache) Lookup(addr uint64) (Line, bool) {
	if i, ok := c.find(addr); ok {
		c.hint[addr&c.hintMask] = uint32(i)
		return c.lineAt(i), true
	}
	return Line{}, false
}

// Access performs a demand access: on hit it refreshes LRU state, marks the
// line dirty if write is set, and returns true.
func (c *Cache) Access(addr uint64, write bool) bool {
	i, ok := c.find(addr)
	if !ok {
		return false
	}
	c.hint[addr&c.hintMask] = uint32(i)
	if write {
		c.meta[i] |= metaDirty
	}
	c.touch(i)
	return true
}

// AccessAux is Access plus the line's aux byte: one set sweep where the
// hierarchy would otherwise pay a Lookup scan followed by an Access scan.
func (c *Cache) AccessAux(addr uint64, write bool) (uint8, bool) {
	i, ok := c.find(addr)
	if !ok {
		return 0, false
	}
	c.hint[addr&c.hintMask] = uint32(i)
	if write {
		c.meta[i] |= metaDirty
	}
	c.touch(i)
	return c.aux[i], true
}

// FillLRU installs addr like Fill but places it at the LRU position, so it
// is the set's next victim unless promoted by a hit (bimodal/LIP insertion
// policies).
func (c *Cache) FillLRU(addr uint64, dirty bool, aux uint8) Eviction {
	ev := c.Fill(addr, dirty, aux)
	base := c.base(addr)
	// Demote the just-filled line below every other stamp in its set.
	var minStamp uint32 = ^uint32(0)
	var idx uint64
	for w := 0; w < c.ways; w++ {
		i := base + uint64(w)
		if c.tags[i] == addr {
			idx = i
			continue
		}
		if c.meta[i]&metaValid != 0 && c.lru[i] < minStamp {
			minStamp = c.lru[i]
		}
	}
	switch {
	case minStamp == ^uint32(0):
		// No other valid line in the set.
		c.lru[idx] = 0
	case minStamp == 0:
		// Stamp space below the current minimum is exhausted (a previous
		// LRU-insert already sits at 0). Renumber the set to open a slot:
		// every other way keeps its relative order at ranks 1..n-1 and the
		// inserted line takes 0, preserving strict LRU ordering. Clamping to
		// 0 instead would tie the two lines and let the victim scan resolve
		// by way index, evicting the older insert first.
		order := c.sortWays(base)
		rank := uint32(1)
		for w := 0; w < c.ways; w++ {
			i := base + uint64(order[w])
			if i == idx {
				continue
			}
			c.lru[i] = rank
			rank++
		}
		c.lru[idx] = 0
	default:
		c.lru[idx] = minStamp - 1
	}
	return ev
}

// Fill installs addr (which must not already be present), returning the
// eviction it displaced. The filled line is made MRU.
func (c *Cache) Fill(addr uint64, dirty bool, aux uint8) Eviction {
	if addr == tagInvalid {
		panic(fault.Invariantf("sram", "fill of the sentinel line address"))
	}
	base := c.base(addr)
	victim := base
	var victimStamp uint32 = ^uint32(0)
	// Sweep tags and lru only: a way is invalid iff its tag is the sentinel
	// (New/Invalidate maintain that), so the meta slab stays untouched until
	// the victim is chosen.
	tags := c.tags[base : base+uint64(c.ways)]
	lru := c.lru[base : base+uint64(c.ways)]
	for w, t := range tags {
		if t == tagInvalid {
			victim = base + uint64(w)
			victimStamp = 0
			break
		}
		if t == addr {
			panic(fault.Invariantf("sram", "fill of already-present line %#x", addr))
		}
		if lru[w] < victimStamp {
			victim, victimStamp = base+uint64(w), lru[w]
		}
	}
	return c.install(victim, addr, dirty, aux)
}

// FillIfAbsent installs addr unless it is already present, in one set
// sweep — where callers would otherwise pay a Lookup scan to guard a Fill
// scan. Present lines are left untouched (no LRU update); the bool reports
// whether a fill happened. The victim choice is identical to Fill's: the
// first invalid way, else the minimum stamp in way order.
func (c *Cache) FillIfAbsent(addr uint64, dirty bool, aux uint8) (Eviction, bool) {
	if addr == tagInvalid {
		panic(fault.Invariantf("sram", "fill of the sentinel line address"))
	}
	base := c.base(addr)
	if c.tags[c.hint[addr&c.hintMask]] == addr {
		return Eviction{}, false
	}
	victim := base
	var victimStamp uint32 = ^uint32(0)
	haveInvalid := false
	tags := c.tags[base : base+uint64(c.ways)]
	lru := c.lru[base : base+uint64(c.ways)]
	for w, t := range tags {
		if t == addr {
			c.hint[addr&c.hintMask] = uint32(base + uint64(w))
			return Eviction{}, false
		}
		if haveInvalid {
			continue
		}
		if t == tagInvalid {
			victim, victimStamp, haveInvalid = base+uint64(w), 0, true
			continue
		}
		if lru[w] < victimStamp {
			victim, victimStamp = base+uint64(w), lru[w]
		}
	}
	return c.install(victim, addr, dirty, aux), true
}

// FillOrDirty absorbs a dirty victim from an upper level: if addr is present
// it is marked dirty (replacement state untouched, matching SetDirty);
// otherwise it is installed dirty. One sweep where callers would pay
// SetDirty followed by Fill.
func (c *Cache) FillOrDirty(addr uint64, aux uint8) (Eviction, bool) {
	if addr == tagInvalid {
		panic(fault.Invariantf("sram", "fill of the sentinel line address"))
	}
	base := c.base(addr)
	if h := uint64(c.hint[addr&c.hintMask]); c.tags[h] == addr {
		c.meta[h] |= metaDirty
		return Eviction{}, false
	}
	victim := base
	var victimStamp uint32 = ^uint32(0)
	haveInvalid := false
	tags := c.tags[base : base+uint64(c.ways)]
	lru := c.lru[base : base+uint64(c.ways)]
	for w, t := range tags {
		if t == addr {
			c.hint[addr&c.hintMask] = uint32(base + uint64(w))
			c.meta[base+uint64(w)] |= metaDirty
			return Eviction{}, false
		}
		if haveInvalid {
			continue
		}
		if t == tagInvalid {
			victim, victimStamp, haveInvalid = base+uint64(w), 0, true
			continue
		}
		if lru[w] < victimStamp {
			victim, victimStamp = base+uint64(w), lru[w]
		}
	}
	return c.install(victim, addr, true, aux), true
}

// install evicts slab index victim and installs addr there, made MRU and
// hinted (the filled line is the set's most likely next hit).
func (c *Cache) install(victim, addr uint64, dirty bool, aux uint8) Eviction {
	var ev Eviction
	if c.tags[victim] != tagInvalid {
		ev = Eviction{Addr: c.tags[victim], Valid: true, Dirty: c.meta[victim]&metaDirty != 0, Aux: c.aux[victim]}
	}
	c.hint[addr&c.hintMask] = uint32(victim)
	c.tags[victim] = addr
	m := uint8(metaValid)
	if dirty {
		m |= metaDirty
	}
	c.meta[victim] = m
	c.aux[victim] = aux
	c.touch(victim)
	return ev
}

// Invalidate removes addr if present, returning its metadata (e.g. so a
// dirty back-invalidated line can be written back).
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	i, ok := c.find(addr)
	if !ok {
		return Line{}, false
	}
	ln := c.lineAt(i)
	c.tags[i] = tagInvalid
	c.meta[i] = 0
	c.aux[i] = 0
	c.lru[i] = 0
	return ln, true
}

// SetAux stores aux metadata on addr's line if present.
func (c *Cache) SetAux(addr uint64, aux uint8) bool {
	i, ok := c.find(addr)
	if !ok {
		return false
	}
	c.aux[i] = aux
	return true
}

// SetDirty marks addr's line dirty if present.
func (c *Cache) SetDirty(addr uint64) bool {
	i, ok := c.find(addr)
	if !ok {
		return false
	}
	c.hint[addr&c.hintMask] = uint32(i)
	c.meta[i] |= metaDirty
	return true
}

// Slot returns addr's slab index, set*Ways() + way: the data frame a
// tags-in-SRAM design keeps beside the tag. Small enough to inline.
func (c *Cache) Slot(addr uint64) (uint64, bool) { return c.find(addr) }

// Range calls fn for every valid line; fn returning false stops iteration.
func (c *Cache) Range(fn func(Line) bool) {
	for i := range c.tags {
		if c.meta[i]&metaValid != 0 {
			if !fn(c.lineAt(uint64(i))) {
				return
			}
		}
	}
}

// Count returns the number of valid lines (for tests).
func (c *Cache) Count() int {
	n := 0
	for i := range c.meta {
		if c.meta[i]&metaValid != 0 {
			n++
		}
	}
	return n
}
