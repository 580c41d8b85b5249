package dramcache

import (
	"math/bits"

	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/event"
	"bear/internal/stats"
)

// This file is the layered L4 controller: one transaction engine shared by
// every DRAM-cache design. A design is a composition of
//
//	Layout     — the bytes each operation moves on the DRAM-cache bus
//	TagStore   — where tags live and how lines are located/installed
//	HitPredictor — whether a miss may dispatch to memory in parallel
//	FillPolicy — whether a miss fills, and what replacement state costs
//	WritebackPolicy — whether a dirty LLC eviction must probe or allocate
//	ProbeFilter — set-presence caches consulted before probing (NTC/TTC)
//
// wired into a Controller. The Controller owns the only transaction type
// (txn, pooled, with pre-bound method-value callbacks) so the timed
// probe→fill→writeback→victim flow exists exactly once; see ARCHITECTURE.md
// for the full contract and alloy.go / tis.go / sector.go / banshee.go /
// tictoc.go / lohhill.go / updbypass.go for the compositions.

// Location is a DRAM-cache coordinate: channel, bank, row.
type Location struct {
	Ch, Bk int
	Row    uint64
}

// Layout declares the bus-transfer sizes of one design, in bytes. A zero
// field disables the corresponding transfer: TagBytes == 0 means hits are a
// single read, MissProbeBytes == 0 means misses never probe (the tags are
// off the DRAM bus), FillBytes == 0 means fills are free (the idealised
// BW-Opt cache; the victim is then resolved at issue), WBProbeBytes == 0
// means the WritebackPolicy never asks for a probe.
//
// FillBytes and VictimReadBytes are per sub-block: a multi-line fill
// (FillResult.FillLines > 1) moves FillLines of them and a partial-page
// writeback recovers one VictimReadBytes read per dirty sub-block
// (FillResult.VictimDirtyMask), so page-grained designs account page fills
// and partial-page writebacks without a second engine.
type Layout struct {
	// Hit path.
	HitBytes     int  // the read that services a hit (the only useful bytes)
	TagBytes     int  // separate tag read chained before the data read (Loh-Hill)
	UpdateBytes  int  // replacement-state write-back after a hit
	UpdateAlways bool // pay UpdateBytes on every hit, not only when FillPolicy.OnHit asks

	// Miss path.
	MissProbeBytes  int // the read that detects a miss in the DRAM array
	FillBytes       int // the write that installs the fetched line
	VictimReadBytes int // dirty-victim recovery read (0: victim forwarded without a read)

	// Writeback path.
	WBUpdateBytes int // the write refreshing (or allocating) a dirty line
	WBProbeBytes  int // the tag read resolving an unknown-presence writeback

	// ExtraLatency is added before every DRAM-cache operation (the MissMap
	// lookup, charged at L3 latency).
	ExtraLatency uint64
}

// Probe is a TagStore's synchronous answer for one line.
type Probe struct {
	Hit bool     // the line is resident
	Loc Location // where the line's set/frame lives in the DRAM array
	Set uint64   // set index, handed to policies and filters
	// Block is the allocation-unit address the line belongs to (equal to
	// the line address for line-grained stores, the page address for
	// page-grained ones); policies and filters key their state by it.
	Block uint64
	// FreeFill reports that a writeback miss may be installed in place
	// without a probe or a victim (the resident-sector/resident-page,
	// absent-line case).
	FreeFill bool
}

// FillResult describes an installation performed by a TagStore.
type FillResult struct {
	Loc         Location // where the line was installed
	VictimLine  uint64   // first line of the displaced block
	VictimValid bool
	VictimDirty bool
	// FillLines scales the fill: the installation moves FillLines
	// sub-blocks of Layout.FillBytes each (a whole-page fill). Zero or one
	// means a single unit — the line-grained behaviour.
	FillLines int
	// VictimDirtyMask holds the victim's dirty sub-block bits (bit i =
	// line VictimLine+i): the recovery read and the memory forward cover
	// exactly the dirty lines. Zero with VictimDirty set means the whole
	// unit is dirty — the line-grained behaviour.
	VictimDirtyMask uint64
}

// TagStore owns a design's tag/presence state. All methods are functional:
// they update state synchronously at issue time (see the package comment);
// the Controller charges the corresponding bus transfers. Lookup must not
// disturb replacement state — the Controller calls Touch on demand hits.
// Fill performs eviction hooks/notifications itself and reports the victim;
// WritebackFill is only called when the WritebackPolicy allocates or Lookup
// reported FreeFill.
type TagStore interface {
	Lookup(now uint64, line uint64) Probe
	Touch(line uint64)
	// Fill installs line; mru=false demands LRU-position insertion (the
	// engine asks the FillPolicy — DIP/BIP-class policies answer per set).
	Fill(now uint64, line, pc uint64, mru bool) FillResult
	WritebackHit(line uint64)
	WritebackFill(now uint64, line uint64) FillResult
	Contains(line uint64) bool
	// Install functionally installs clean lines in order (see
	// Cache.Install); each store loops over the batch itself.
	Install(lines ...uint64)
}

// HitPredictor guesses hit/miss before the probe resolves. A nil predictor
// always predicts hit (every miss serialises memory behind the probe).
// actualHit is the functional outcome, so oracle predictors and same-call
// training (MAP-I's predict-then-update) need no second round trip.
type HitPredictor interface {
	Predict(coreID int, pc uint64, actualHit bool) bool
}

// FillPolicy decides whether misses fill, where fills insert and what
// secondary replacement state costs. A nil policy always fills at MRU and
// never pays update traffic. block is the allocation-unit address
// (Probe.Block): page-grained policies key frequency/monitor state by it.
type FillPolicy interface {
	// RecordAccess observes every L4 access (set-dueling monitors,
	// frequency counters).
	RecordAccess(set, block uint64, miss bool)
	// ShouldBypass is consulted once per miss, before any fill.
	ShouldBypass(set, block, pc uint64) bool
	// OnHit is consulted once per hit; returning true charges
	// Layout.UpdateBytes of replacement-update traffic (in-DRAM status
	// bits that must be written back).
	OnHit(set uint64) (updateState bool)
	// OnFill observes a completed functional fill (predictor training).
	OnFill(set, block, pc uint64, hadVictim bool)
	// InsertMRU chooses the insertion position of the fill that is about
	// to happen in set: false demands LRU insertion (DIP's bimodal throw-
	// away inserts). Policies without an insertion opinion return true.
	InsertMRU(set uint64) bool
}

// WritebackPolicy resolves a dirty LLC eviction whose presence answer is
// hit (tag store) and pres (a DCP bit, when the hierarchy keeps one); line
// lets policies backed by their own structures (Banshee's tag buffer,
// TicToc's tag cache) answer per address. probe=false settles the
// writeback at issue; presKnown additionally credits the DCP for saving a
// probe. Allocate is consulted on a probed writeback miss: install the
// line instead of forwarding it to memory.
type WritebackPolicy interface {
	NeedsProbe(line uint64, hit bool, pres core.Presence) (probe, presKnown bool)
	Allocate() bool
}

// ProbeFilter is a presence cache consulted before DRAM-array probes
// (NTC/TTC). Consult may answer presence definitively and whether the miss
// probe can be skipped; OnProbe observes tag bytes moving on the bus
// (deposits); Sync keeps filter entries coherent with a functional update
// to the set.
type ProbeFilter interface {
	Consult(set, block, line uint64) (known, present, skipProbe bool)
	OnProbe(set, block uint64)
	Sync(set, block uint64)
}

// Controller drives any composed design through the shared transaction
// engine. The zero value with only name/mem set is the no-L4 pass-through.
type Controller struct {
	name string
	lay  Layout

	tags   TagStore
	pred   HitPredictor
	fill   FillPolicy
	wb     WritebackPolicy
	filter ProbeFilter

	l4    *dram.Memory
	mem   *MainMemory
	hooks Hooks
	st    stats.L4

	txnFree *txn // recycled per-access transaction pool
	live    int  // transactions currently in flight (leak invariant)
}

// newController starts a tag-store composition: every design but NoL4
// builds on one. The Layout is a required argument because a zero Layout
// would charge zero bus bytes for every transfer the design makes.
func newController(name string, lay Layout, l4 *dram.Memory, mem *MainMemory, hooks Hooks) *Controller {
	return &Controller{name: name, lay: lay, l4: l4, mem: mem, hooks: hooks}
}

// txn carries one in-flight access's timing state. Transactions are pooled
// per controller with every completion callback pre-bound as a method
// value, so an L4 hit or miss allocates zero bytes in steady state — the
// per-access closures this replaces were the simulator's dominant GC load.
type txn struct {
	c    *Controller
	now  uint64
	line uint64
	loc  Location
	done func(uint64, ReadResult)

	update      bool // hit path: replacement state must be written back
	filled      bool // miss path: line was installed (fill paid on data arrival)
	inL4        bool // miss path: line is resident after the access
	hit         bool // writeback path: probe found the line
	victimLine  uint64
	victimValid bool
	victimDirty bool
	victimMask  uint64 // dirty sub-block bits of the victim (0: whole unit)
	fillLines   int    // sub-blocks the fill moves (0 or 1: one unit)
	pendingBoth int    // parallel path: completions still outstanding

	// The one probe or hit read in flight (see probe): its bloat category,
	// its size and the step that follows it.
	probeCat   stats.Category
	probeBytes int
	then       event.Func

	fnProbe, fnHit, fnHitTag, fnMissMem event.Func
	fnBoth, fnBothMem                   event.Func
	fnSerialProbe, fnSerialMem          event.Func
	fnWBProbe                           event.Func
	next                                *txn
}

func (c *Controller) getTxn() *txn {
	x := c.txnFree
	if x == nil {
		x = &txn{c: c}
		x.fnProbe = x.onProbe
		x.fnHit = x.onHit
		x.fnHitTag = x.onHitTag
		x.fnMissMem = x.onMissMem
		x.fnBoth = x.both
		x.fnBothMem = x.onBothMem
		x.fnSerialProbe = x.onSerialProbe
		x.fnSerialMem = x.onSerialMem
		x.fnWBProbe = x.onWBProbe
	} else {
		c.txnFree = x.next
		x.next = nil
	}
	c.live++
	x.update, x.filled, x.inL4, x.hit = false, false, false, false
	x.victimValid, x.victimDirty = false, false
	x.victimMask, x.fillLines = 0, 0
	x.pendingBoth = 0
	return x
}

func (c *Controller) putTxn(x *txn) {
	x.done = nil
	x.next = c.txnFree
	c.txnFree = x
	c.live--
}

// OutstandingTxns reports in-flight transactions; zero once the event queue
// has drained (the pool-leak invariant checked by integration tests).
func (c *Controller) OutstandingTxns() int { return c.live }

// The three charging points below are the only places the engine charges
// DRAM-cache bus bytes: each takes the bloat category with the size, so a
// transfer cannot be enqueued without landing in exactly one category.
// Writes and victim reads charge at enqueue; probe and hit reads charge at
// completion (probe). The stats reset at the warm boundary runs while
// transfers are in flight, so a probe issued in warm-up that completes after
// it counts in the measured window, and the golden outputs pin that split.

// l4Read charges bytes to cat and enqueues a DRAM-cache bus read whose
// completion runs fn (victim recovery reads).
func (c *Controller) l4Read(at uint64, loc Location, cat stats.Category, bytes int, fn event.Func) {
	c.st.AddBytes(cat, bytes)
	c.l4.Read(at, loc.Ch, loc.Bk, loc.Row, bytes, fn)
}

// l4Write charges bytes to cat and enqueues a DRAM-cache bus write.
func (c *Controller) l4Write(at uint64, loc Location, cat stats.Category, bytes int) {
	c.st.AddBytes(cat, bytes)
	c.l4.Write(at, loc.Ch, loc.Bk, loc.Row, bytes)
}

// probe enqueues the transaction's probe or hit read; onProbe charges bytes
// to cat when it completes and then runs then. A transaction has at most one
// such read in flight, so one slot on the txn holds its charge.
func (x *txn) probe(at uint64, loc Location, cat stats.Category, bytes int, then event.Func) {
	x.probeCat, x.probeBytes, x.then = cat, bytes, then
	x.c.l4.Read(at, loc.Ch, loc.Bk, loc.Row, bytes, x.fnProbe)
}

// onProbe completes a probe: charge it, then run the step it gates.
func (x *txn) onProbe(t uint64) {
	x.c.st.AddBytes(x.probeCat, x.probeBytes)
	x.then(t)
}

// onHitTag completes a chained tag read; the data line follows from the
// now-open row (Loh-Hill hits).
func (x *txn) onHitTag(t uint64) {
	x.probe(t, x.loc, stats.HitProbe, x.c.lay.HitBytes, x.fnHit)
}

// onHit completes a hit's probe: the probe is the useful data transfer.
// The replacement-state write-back follows when the policy asked for one.
func (x *txn) onHit(t uint64) {
	c := x.c
	c.st.Hit(t - x.now)
	if x.update {
		c.l4Write(t, x.loc, stats.ReplUpdate, c.lay.UpdateBytes)
	}
	done := x.done
	c.putTxn(x)
	done(t, ReadResult{FromL4: true, InL4: true})
}

// fillAt charges the Miss Fill write (and the dirty victim's recovery) when
// the data arrives from main memory. Both transfers scale to the
// granularity the tag store reported: a page fill moves fillLines units of
// FillBytes, and a sub-blocked victim recovers one VictimReadBytes read per
// dirty line (victimMask) instead of the whole block.
func (x *txn) fillAt(t uint64) {
	if !x.filled {
		return
	}
	c := x.c
	c.st.Fills++
	fillBytes := c.lay.FillBytes
	if x.fillLines > 1 {
		fillBytes *= x.fillLines
	}
	c.l4Write(t, x.loc, stats.MissFill, fillBytes)
	if x.victimValid && x.victimDirty {
		if c.lay.VictimReadBytes > 0 {
			// The victim's data must be read back before it is lost.
			vb := c.lay.VictimReadBytes
			if x.victimMask != 0 {
				vb *= bits.OnesCount64(x.victimMask)
			}
			c.l4Read(t, x.loc, stats.VictimRead, vb, c.mem.VictimFwd(x.victimLine, x.victimMask))
		} else {
			c.mem.WriteLine(t, x.victimLine)
		}
	}
}

// finish retires a miss and recycles the transaction.
func (x *txn) finish(t uint64) {
	c := x.c
	c.st.Miss(t - x.now)
	done, inL4 := x.done, x.inL4
	c.putTxn(x)
	done(t, ReadResult{FromL4: false, InL4: inL4})
}

// onMissMem completes the probe-skipped miss (memory only).
func (x *txn) onMissMem(t uint64) {
	x.fillAt(t)
	x.finish(t)
}

// both gates the parallel path: probe and memory proceed concurrently; data
// is usable when both the miss is confirmed and the line has arrived. Events
// fire in time order, so the second completion carries max(Tp, Tm).
func (x *txn) both(t uint64) {
	x.pendingBoth--
	if x.pendingBoth == 0 {
		x.finish(t)
	}
}

func (x *txn) onBothMem(t uint64) {
	x.fillAt(t)
	x.both(t)
}

// onSerialProbe is the predicted-hit miss: memory starts only after the
// probe detects the miss (the serialisation penalty MAP-I exists to avoid).
func (x *txn) onSerialProbe(t uint64) {
	x.c.mem.ReadLine(t, x.line, x.fnSerialMem)
}

func (x *txn) onSerialMem(t uint64) {
	x.fillAt(t)
	x.finish(t)
}

// onWBProbe resolves a writeback whose presence was unknown: the probe has
// completed and the update, fill or memory forward follows.
func (x *txn) onWBProbe(t uint64) {
	c := x.c
	switch {
	case x.hit:
		c.st.WBHits++
		c.l4Write(t, x.loc, stats.WBUpdate, c.lay.WBUpdateBytes)
	case x.filled:
		// Writeback Fill: the line was installed at issue; pay for it now
		// and recover the dirty victim it displaced.
		c.st.WBMisses++
		c.l4Write(t, x.loc, stats.WBFill, c.lay.WBUpdateBytes)
		if x.victimValid && x.victimDirty {
			c.mem.WriteLine(t, x.victimLine)
		}
	default:
		c.st.WBMisses++
		c.mem.WriteLine(t, x.line)
	}
	c.putTxn(x)
}

// Name implements Cache.
func (c *Controller) Name() string { return c.name }

// Stats implements Cache.
func (c *Controller) Stats() *stats.L4 { return &c.st }

// Tags exposes the tag store (tests, diagnostics); nil for the no-L4
// pass-through.
func (c *Controller) Tags() TagStore { return c.tags }

// Contains implements Cache.
func (c *Controller) Contains(line uint64) bool {
	if c.tags == nil {
		return false
	}
	return c.tags.Contains(line)
}

// Install implements Cache: a free functional fill used for pre-warming.
func (c *Controller) Install(lines ...uint64) {
	if c.tags != nil {
		c.tags.Install(lines...)
	}
}

// Read implements Cache. See the package comment for the functional-at-
// issue convention: tag state and policy decisions are resolved here, and
// timed DRAM transactions deliver bandwidth/latency effects.
func (c *Controller) Read(now uint64, coreID int, line, pc uint64, done func(uint64, ReadResult)) {
	if c.tags == nil {
		// No L4: every LLC miss goes straight to main memory.
		x := c.getTxn()
		x.now, x.line, x.done = now, line, done
		c.mem.ReadLine(now, line, x.fnMissMem)
		return
	}

	p := c.tags.Lookup(now, line)
	if c.fill != nil {
		c.fill.RecordAccess(p.Set, p.Block, !p.Hit)
	}

	// Filter consultation: a known answer either guarantees a hit (so a
	// mispredicted parallel memory access can be squashed) or guarantees a
	// miss (so the probe can be skipped when the resident line is clean).
	var known, present, skipProbe bool
	if c.filter != nil {
		known, present, skipProbe = c.filter.Consult(p.Set, p.Block, line)
	}

	predHit := true
	if c.pred != nil {
		predHit = c.pred.Predict(coreID, pc, p.Hit)
		if predHit == p.Hit {
			c.st.PredHits++
		} else {
			c.st.PredMisses++
		}
	}

	start := now + c.lay.ExtraLatency

	if p.Hit {
		// The probe is the useful data transfer.
		c.tags.Touch(line)
		if c.filter != nil {
			c.filter.OnProbe(p.Set, p.Block)
		}
		x := c.getTxn()
		x.now, x.loc, x.done = now, p.Loc, done
		x.update = c.lay.UpdateAlways || (c.fill != nil && c.fill.OnHit(p.Set))
		if c.lay.TagBytes > 0 {
			x.probe(start, p.Loc, stats.HitProbe, c.lay.TagBytes, x.fnHitTag)
		} else {
			x.probe(start, p.Loc, stats.HitProbe, c.lay.HitBytes, x.fnHit)
		}
		if !predHit {
			if known && present {
				// The filter guarantees the hit: squash the wasteful
				// parallel memory access the predictor would have issued.
				c.st.NTCParallelSqsh++
			} else {
				c.mem.ReadLine(now, line, nil) // wasted parallel access
			}
		}
		return
	}

	// --- Miss path. ---
	// The memory access may start immediately when the miss is known or
	// predicted; a predicted hit serialises memory behind the probe.
	parallel := !predHit || skipProbe || (known && !present)
	if skipProbe {
		c.st.NTCProbesSaved++
	}

	// Fill / bypass decision (functional state updates immediately).
	bypass := c.fill != nil && c.fill.ShouldBypass(p.Set, p.Block, pc)
	x := c.getTxn()
	x.now, x.line, x.loc, x.done = now, line, p.Loc, done
	if !bypass {
		mru := c.fill == nil || c.fill.InsertMRU(p.Set)
		fr := c.tags.Fill(now, line, pc, mru)
		if c.fill != nil {
			c.fill.OnFill(p.Set, p.Block, pc, fr.VictimValid)
		}
		if c.filter != nil {
			c.filter.Sync(p.Set, p.Block)
		}
		x.loc = fr.Loc
		x.inL4 = true
		if c.lay.FillBytes > 0 {
			x.filled = true
			x.fillLines = fr.FillLines
			x.victimLine, x.victimValid, x.victimDirty = fr.VictimLine, fr.VictimValid, fr.VictimDirty
			x.victimMask = fr.VictimDirtyMask
			if fr.FillLines > 1 {
				// A multi-line (page) fill streams its tail from main
				// memory too; the demand line's own read gates the txn.
				c.mem.ReadTail(start, line, (fr.FillLines-1)*64)
			}
		} else {
			// Free fills (BW-Opt) settle the victim at issue.
			if fr.VictimValid && fr.VictimDirty {
				c.mem.WriteLine(now, fr.VictimLine)
			}
			c.st.Fills++
		}
	} else {
		c.st.Bypasses++
	}

	if c.filter != nil && !skipProbe {
		c.filter.OnProbe(p.Set, p.Block)
	}

	switch {
	case c.lay.MissProbeBytes == 0 || skipProbe:
		c.mem.ReadLine(start, line, x.fnMissMem)
	case parallel:
		x.pendingBoth = 2
		x.probe(start, x.loc, stats.MissProbe, c.lay.MissProbeBytes, x.fnBoth)
		c.mem.ReadLine(start, line, x.fnBothMem)
	default:
		x.probe(start, x.loc, stats.MissProbe, c.lay.MissProbeBytes, x.fnSerialProbe)
	}
}

// Writeback implements Cache.
func (c *Controller) Writeback(now uint64, coreID int, line uint64, pres core.Presence) {
	if c.tags == nil {
		c.st.WBMisses++
		c.mem.WriteLine(now, line)
		return
	}

	p := c.tags.Lookup(now, line)
	start := now + c.lay.ExtraLatency
	probe, presKnown := c.wb.NeedsProbe(line, p.Hit, pres)
	if !probe {
		switch {
		case p.Hit:
			if presKnown {
				c.st.DCPProbesSaved++
			}
			c.st.WBHits++
			c.tags.WritebackHit(line)
			if c.filter != nil {
				c.filter.Sync(p.Set, p.Block)
			}
			if c.lay.WBUpdateBytes > 0 {
				c.l4Write(start, p.Loc, stats.WBUpdate, c.lay.WBUpdateBytes)
			}
		case p.FreeFill:
			// Resident sector/page, absent line: install in place, no victim.
			fr := c.tags.WritebackFill(now, line)
			c.st.WBHits++
			c.l4Write(start, fr.Loc, stats.WBFill, c.lay.WBUpdateBytes)
		default:
			if presKnown {
				c.st.DCPProbesSaved++
			}
			c.st.WBMisses++
			c.mem.WriteLine(start, line)
		}
		return
	}

	// Unknown presence (or a violated guarantee, handled conservatively):
	// probe, resolving the update, fill or memory forward on completion.
	if c.filter != nil {
		c.filter.OnProbe(p.Set, p.Block)
	}
	x := c.getTxn()
	x.now, x.line, x.loc = now, line, p.Loc
	x.hit = p.Hit
	if p.Hit {
		c.tags.WritebackHit(line)
		if c.filter != nil {
			c.filter.Sync(p.Set, p.Block)
		}
	} else if p.FreeFill || c.wb.Allocate() {
		// Writeback Fill: install the dirty line now (functional), pay
		// for it when the probe completes.
		fr := c.tags.WritebackFill(now, line)
		x.loc = fr.Loc
		x.filled = true
		x.victimLine, x.victimValid, x.victimDirty = fr.VictimLine, fr.VictimValid, fr.VictimDirty
		if c.filter != nil {
			c.filter.Sync(p.Set, p.Block)
		}
	}
	x.probe(start, x.loc, stats.WBProbe, c.lay.WBProbeBytes, x.fnWBProbe)
}

var _ Cache = (*Controller)(nil)

// --- Shared policy implementations (design-specific ones live with their
// tag stores; see alloy.go and updbypass.go). ---

// oraclePred is the perfect hit/miss predictor (ablation upper bound).
type oraclePred struct{}

func (oraclePred) Predict(_ int, _ uint64, actualHit bool) bool { return actualHit }

// mapiPred adapts MAP-I: predict from the PC-indexed counter, then train it
// with the actual outcome (the order the Alloy paper specifies).
type mapiPred struct{ m *MAPI }

func (p mapiPred) Predict(coreID int, pc uint64, actualHit bool) bool {
	predHit := p.m.Predict(coreID, pc)
	p.m.Update(coreID, pc, actualHit)
	return predHit
}

// directWB settles every writeback at issue: the tag store's answer is
// authoritative (SRAM tags, sector tags, a MissMap, or the idealised
// BW-Opt cache), so no probe is ever needed.
type directWB struct{}

func (directWB) NeedsProbe(uint64, bool, core.Presence) (probe, presKnown bool) {
	return false, false
}
func (directWB) Allocate() bool { return false }

// probeWB probes whenever no DCP bit answers presence (the Mostly-Clean
// tags-in-DRAM cache, whose tags can only be read from the DRAM array).
type probeWB struct{}

func (probeWB) NeedsProbe(_ uint64, _ bool, pres core.Presence) (probe, presKnown bool) {
	return pres == core.PresUnknown, false
}
func (probeWB) Allocate() bool { return false }

// noBypass wraps a FillPolicy so fills never bypass (inclusive designs must
// install every miss) while monitors and update-state policies still run.
type noBypass struct{ FillPolicy }

func (noBypass) ShouldBypass(uint64, uint64, uint64) bool { return false }
