// Package hier wires the full memory hierarchy: per-core L1/L2 SRAM caches,
// the shared L3 (the paper's LLC), the L4 DRAM cache, and main memory. It
// implements the cpu.MemPort contract, routes dirty evictions down the
// hierarchy, maintains the BEAR DCP bit on L3 lines, merges concurrent
// misses to the same line (MSHR behaviour), and services the inclusive
// design's back-invalidations.
package hier

import (
	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/cpu"
	"bear/internal/dramcache"
	"bear/internal/event"
	"bear/internal/fault"
	"bear/internal/sram"
)

// L3 aux-byte encoding for the DCP mechanism: bit 0 is the presence bit,
// bit 1 marks the bit as valid (lines that re-enter the L3 as victims from
// the private levels have unknown presence and must probe).
const (
	auxPresent = core.DCPBit
	auxKnown   = 1 << 1
)

// Counters aggregates hierarchy-level statistics.
type Counters struct {
	L1Accesses, L1Misses uint64
	L2Accesses, L2Misses uint64
	L3Accesses, L3Misses uint64
	L3Writebacks         uint64
	MSHRMerges           uint64
	BackInvalidates      uint64
}

// missEntry tracks one in-flight L3 miss and the requests merged into it.
// Entries are pooled on the Hierarchy with a pre-bound fill callback, so an
// L3 miss allocates nothing once the pool is warm (the waiters slice keeps
// its grown capacity across reuses).
type missEntry struct {
	h       *Hierarchy
	line    uint64
	core    int // core that issued the first (L4-visible) request
	waiters []waiter
	store   bool // at least one merged request was a store

	fill func(uint64, dramcache.ReadResult) // pre-bound e.onFill
	next *missEntry
}

type waiter struct {
	done  event.Func
	store bool
	core  int
}

// onFill is the L4 read-completion callback: it installs the line, services
// every merged waiter, and recycles the entry.
func (e *missEntry) onFill(t uint64, res dramcache.ReadResult) {
	h := e.h
	h.pending.del(e.line)
	h.fillL3(t, e.core, e.line, res)
	aux := auxFor(res.InL4)
	for _, w := range e.waiters {
		h.fillL2(t, w.core, e.line, aux)
		h.fillL1(w.core, e.line, w.store, aux)
		if w.done != nil {
			w.done(t)
		}
	}
	h.putMiss(e)
}

// Hierarchy is the on-chip cache stack in front of an L4 design.
type Hierarchy struct {
	cfg config.System
	q   *event.Queue

	l1 []*sram.Cache
	l2 []*sram.Cache
	l3 *sram.Cache
	l4 dramcache.Cache

	pending    missTable
	missFree   *missEntry // recycled missEntry freelist
	liveMisses int        // miss entries handed out and not yet recycled

	Counters Counters
}

// getMiss returns a pooled miss entry for line, allocating (and binding its
// fill callback) only when the freelist is empty.
func (h *Hierarchy) getMiss(line uint64, coreID int, store bool) *missEntry {
	h.liveMisses++
	e := h.missFree
	if e == nil {
		e = &missEntry{h: h}
		e.fill = e.onFill
	} else {
		h.missFree = e.next
		e.next = nil
	}
	e.line, e.core, e.store = line, coreID, store
	return e
}

// putMiss recycles a miss entry, keeping the waiters slice's capacity.
func (h *Hierarchy) putMiss(e *missEntry) {
	for i := range e.waiters {
		e.waiters[i] = waiter{}
	}
	e.waiters = e.waiters[:0]
	e.next = h.missFree
	h.missFree = e
	h.liveMisses--
}

// New builds the hierarchy for cfg with cores private cache pairs. The L4
// design is attached afterwards with AttachL4 (the dramcache hooks need the
// hierarchy to exist first).
func New(cfg config.System, q *event.Queue, cores int) *Hierarchy {
	h := &Hierarchy{
		cfg:     cfg,
		q:       q,
		l3:      sram.New(uint64(cfg.L3.Sets()), cfg.L3.Ways),
		pending: newMissTable(),
	}
	for i := 0; i < cores; i++ {
		h.l1 = append(h.l1, sram.New(uint64(cfg.L1.Sets()), cfg.L1.Ways))
		h.l2 = append(h.l2, sram.New(uint64(cfg.L2.Sets()), cfg.L2.Ways))
	}
	return h
}

// AttachL4 connects the DRAM-cache design.
func (h *Hierarchy) AttachL4(l4 dramcache.Cache) { h.l4 = l4 }

// Hooks returns the dramcache upcalls bound to this hierarchy. OnEvict is
// wired only under DCP: it maintains the presence bits that routeL3Victim
// reads, and nothing else reads them, so without DCP each notice would
// sweep every on-chip level for nothing (17 set sweeps with 8 cores, once
// per valid line of an evicted page).
func (h *Hierarchy) Hooks() dramcache.Hooks {
	hooks := dramcache.Hooks{OnBackInvalidate: h.onBackInvalidate}
	if h.cfg.UseDCP {
		hooks.OnEvict = h.onL4Evict
	}
	return hooks
}

// L3 exposes the shared cache (tests and invariant checks).
func (h *Hierarchy) L3() *sram.Cache { return h.l3 }

// CheckPending verifies the MSHR merge table, for the watchdog's -check
// mode: every in-flight miss entry must be keyed by its own line and carry
// at least one waiter (an entry with no waiters would complete into
// nothing, silently losing a load).
func (h *Hierarchy) CheckPending() error {
	return h.pending.each(func(line uint64, e *missEntry) error {
		if e.line != line {
			return fault.Invariantf("hier", "miss entry for line %#x filed under %#x", e.line, line)
		}
		if len(e.waiters) == 0 {
			return fault.Invariantf("hier", "miss entry for line %#x has no waiters", line)
		}
		return nil
	})
}

// onL4Evict updates the DCP state when a line leaves the DRAM cache: the
// line's presence bit is cleared (known-absent) at every on-chip level,
// never invalidated. Keeping the bit in the private levels too means a
// dirty line that migrates L2 -> L3 retains its presence knowledge.
func (h *Hierarchy) onL4Evict(line uint64) {
	h.l3.SetAux(line, auxKnown) // known, not present
	for i := range h.l1 {
		h.l1[i].SetAux(line, auxKnown)
		h.l2[i].SetAux(line, auxKnown)
	}
}

// onBackInvalidate enforces inclusion: every on-chip copy is invalidated
// and the caller learns whether one of them was dirty.
func (h *Hierarchy) onBackInvalidate(line uint64) bool {
	h.Counters.BackInvalidates++
	dirty := false
	for i := range h.l1 {
		if ln, ok := h.l1[i].Invalidate(line); ok && ln.Dirty {
			dirty = true
		}
		if ln, ok := h.l2[i].Invalidate(line); ok && ln.Dirty {
			dirty = true
		}
	}
	if ln, ok := h.l3.Invalidate(line); ok && ln.Dirty {
		dirty = true
	}
	return dirty
}

// Load implements cpu.MemPort.
func (h *Hierarchy) Load(now uint64, coreID int, line, pc uint64, done event.Func) (uint64, bool) {
	h.Counters.L1Accesses++
	if h.l1[coreID].Access(line, false) {
		return now + h.cfg.L1.Latency, true
	}
	h.Counters.L1Misses++
	h.Counters.L2Accesses++
	if aux, ok := h.l2[coreID].AccessAux(line, false); ok {
		h.fillL1Miss(coreID, line, false, aux)
		return now + h.cfg.L2.Latency, true
	}
	h.Counters.L2Misses++
	h.Counters.L3Accesses++
	if aux, ok := h.l3.AccessAux(line, false); ok {
		h.fillL2(now, coreID, line, aux)
		h.fillL1Miss(coreID, line, false, aux)
		return now + h.cfg.L3.Latency, true
	}
	h.miss(now, coreID, line, pc, false, done)
	return 0, false
}

// Store implements cpu.MemPort. Stores are posted: they allocate through
// the hierarchy (write-allocate) and mark the L1 copy dirty, but never
// block the core.
func (h *Hierarchy) Store(now uint64, coreID int, line, pc uint64) {
	h.Counters.L1Accesses++
	if h.l1[coreID].Access(line, true) {
		return
	}
	h.Counters.L1Misses++
	h.Counters.L2Accesses++
	if aux, ok := h.l2[coreID].AccessAux(line, false); ok {
		h.fillL1Miss(coreID, line, true, aux)
		return
	}
	h.Counters.L2Misses++
	h.Counters.L3Accesses++
	if aux, ok := h.l3.AccessAux(line, false); ok {
		h.fillL2(now, coreID, line, aux)
		h.fillL1Miss(coreID, line, true, aux)
		return
	}
	h.miss(now, coreID, line, pc, true, nil)
}

// miss handles an L3 miss with MSHR merging: concurrent requests for the
// same line share one L4 access.
func (h *Hierarchy) miss(now uint64, coreID int, line, pc uint64, store bool, done event.Func) {
	if e := h.pending.get(line); e != nil {
		h.Counters.MSHRMerges++
		e.waiters = append(e.waiters, waiter{done: done, store: store, core: coreID})
		if store {
			e.store = true
		}
		return
	}
	h.Counters.L3Misses++
	e := h.getMiss(line, coreID, store)
	e.waiters = append(e.waiters, waiter{done: done, store: store, core: coreID})
	h.pending.put(line, e)

	issue := now + h.cfg.L3.Latency // tag lookup discovered the miss
	h.l4.Read(issue, coreID, line, pc, e.fill)
}

// fillL3 installs a line arriving from the L4/memory, recording the DCP
// presence bit from the read result, and routes the displaced victim.
func (h *Hierarchy) fillL3(now uint64, coreID int, line uint64, res dramcache.ReadResult) {
	ev, ok := h.l3.FillIfAbsent(line, false, auxFor(res.InL4))
	if !ok {
		// Possible when a back-invalidated line raced a fill; refresh aux.
		h.l3.SetAux(line, auxFor(res.InL4))
		return
	}
	h.routeL3Victim(now, coreID, ev)
}

func auxFor(inL4 bool) uint8 {
	if inL4 {
		return auxKnown | auxPresent
	}
	return auxKnown
}

// routeL3Victim sends a displaced L3 line to the L4: dirty lines become
// writebacks (with a DCP answer when enabled); clean lines are dropped
// (non-inclusive hierarchy, no clean-eviction notification).
func (h *Hierarchy) routeL3Victim(now uint64, coreID int, ev sram.Eviction) {
	if !ev.Valid || !ev.Dirty {
		return
	}
	h.Counters.L3Writebacks++
	pres := core.PresUnknown
	if h.cfg.UseDCP && ev.Aux&auxKnown != 0 {
		pres = core.PresenceFromAux(ev.Aux)
	}
	h.l4.Writeback(now, coreID, ev.Addr, pres)
}

// fillL1 installs a line in a private L1, cascading its victim into the L2.
// The aux byte carries the DCP presence state down the private levels.
// Asynchronous fill paths use it because the line may have arrived through
// another path while the miss was in flight; the synchronous hit paths in
// Load/Store call fillL1Miss, which skips the presence guard.
func (h *Hierarchy) fillL1(coreID int, line uint64, dirty bool, aux uint8) {
	if dirty {
		if h.l1[coreID].Access(line, true) {
			return
		}
		h.fillL1Miss(coreID, line, true, aux)
		return
	}
	if ev, ok := h.l1[coreID].FillIfAbsent(line, false, aux); ok && ev.Valid && ev.Dirty {
		h.absorbIntoL2(coreID, ev.Addr, ev.Aux)
	}
}

// fillL1Miss installs a line known absent from the L1 — the caller observed
// the miss in the same event, with nothing in between that could have filled
// it — so the set is swept exactly once.
func (h *Hierarchy) fillL1Miss(coreID int, line uint64, dirty bool, aux uint8) {
	ev := h.l1[coreID].Fill(line, dirty, aux)
	if ev.Valid && ev.Dirty {
		h.absorbIntoL2(coreID, ev.Addr, ev.Aux)
	}
}

// fillL2 installs a line in a private L2, cascading its victim into the L3.
func (h *Hierarchy) fillL2(now uint64, coreID int, line uint64, aux uint8) {
	if ev, ok := h.l2[coreID].FillIfAbsent(line, false, aux); ok && ev.Valid && ev.Dirty {
		h.absorbIntoL3(now, coreID, ev.Addr, ev.Aux)
	}
}

// absorbIntoL2 receives a dirty L1 victim.
func (h *Hierarchy) absorbIntoL2(coreID int, line uint64, aux uint8) {
	ev, filled := h.l2[coreID].FillOrDirty(line, aux)
	if filled && ev.Valid && ev.Dirty {
		h.absorbIntoL3(h.q.Now(), coreID, ev.Addr, ev.Aux)
	}
}

// absorbIntoL3 receives a dirty L2 victim, preserving the presence state it
// carried in the private levels so its eventual writeback keeps the DCP
// guarantee.
func (h *Hierarchy) absorbIntoL3(now uint64, coreID int, line uint64, aux uint8) {
	ev, filled := h.l3.FillOrDirty(line, aux)
	if filled {
		h.routeL3Victim(now, coreID, ev)
	}
}

var _ cpu.MemPort = (*Hierarchy)(nil)
