// Package cpu models the processor cores. Each core is a 2-wide
// interval-style model: instructions retire at the configured width, loads
// may overlap up to the MSHR limit, and the core may run ahead of its oldest
// incomplete load by at most the window size (an ROB approximation). Stores
// are non-blocking (posted into the hierarchy).
//
// The model is event-driven: a core simulates forward in short quanta and
// yields to the event queue, waking again when simulated time catches up or
// when a blocking load completes. This exposes memory-level parallelism —
// the property that makes DRAM-cache bandwidth, not just latency, determine
// performance — without per-cycle pipeline simulation.
//
// The per-instruction path is steady-state allocation-free: the core's wakeup
// callback is bound once at construction, load-completion callbacks are
// pooled tokens with pre-bound methods, the outstanding-load window is a
// reusable ring buffer, and trace records arrive in a fixed block embedded
// in the core.
package cpu

import (
	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/fault"
	"bear/internal/trace"
)

// MemPort is the cache hierarchy as seen by a core.
type MemPort interface {
	// Load issues a load for a line address. If the port can bound the
	// completion time immediately (an on-chip hit), it returns
	// (completeAt, true) and will not call done; completeAt must be below
	// now + Window/Width (see SyncLimit). Otherwise it returns (0, false)
	// and invokes done exactly once, later, from the event queue.
	Load(now uint64, core int, line, pc uint64, done event.Func) (completeAt uint64, sync bool)
	// Store issues a posted store for a line address.
	Store(now uint64, core int, line, pc uint64)
}

// quantum bounds how far a core simulates ahead of global time before
// yielding to the event queue, keeping cross-core interleaving in the shared
// caches close to timestamp order.
const quantum = 32

// blockLen is the number of trace records a core draws from its Source at
// a time. Each core owns its Source, so drawing ahead changes no record.
const blockLen = 64

// filler is a Source that can write a block of records in one call: the
// records as many Next calls would give.
type filler interface {
	Fill(ops []trace.Op)
}

// SyncLimit is the bound a synchronous load's latency must stay below:
// retiring Window instructions past a load takes at least Window/Width
// cycles, so a load answered in less time has completed before it can be
// the oldest load of a full window. That is why the core keeps such loads
// out of its outstanding-load window and counts them only as MSHR slots.
func SyncLimit(cfg config.Core) uint64 {
	if cfg.Width <= 0 || cfg.Window <= 0 {
		return 0
	}
	return uint64(cfg.Window / cfg.Width)
}

// pendingLoad is one async load in the outstanding-load window. A
// completed load leaves the window at the next popCompleted, since core time
// has reached its completion by then; it stays only behind a pending one.
type pendingLoad struct {
	idx     uint64 // instruction number of the load
	pending bool   // true while waiting for its callback
}

// loadRing is a growable FIFO ring of pending loads. The window advances
// monotonically (push at tail, pop at head), so a head/length ring reuses
// its backing array forever instead of crawling a slice forward. Capacity
// is kept a power of two so indexing is a mask, not a division — At sits on
// the per-instruction path.
//
// popped counts lifetime PopFronts, giving every entry a stable absolute
// position (popped+i for the i-th outstanding load). Completion callbacks
// carry that position so they resolve their entry in O(1) instead of
// scanning the window.
type loadRing struct {
	buf    []pendingLoad
	head   int
	n      int
	popped uint64
}

// Len reports the number of outstanding loads.
func (r *loadRing) Len() int { return r.n }

// At returns the i-th outstanding load in issue order.
func (r *loadRing) At(i int) *pendingLoad { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Push appends a load at the tail, growing the ring when full, and returns
// the entry's absolute position.
func (r *loadRing) Push(p pendingLoad) uint64 {
	if r.n == len(r.buf) {
		grown := make([]pendingLoad, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.At(i)
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
	return r.popped + uint64(r.n-1)
}

// PopFront removes the oldest outstanding load.
func (r *loadRing) PopFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.popped++
}

// doneToken is a pooled load-completion callback: fn is the pre-bound
// complete method, so issuing a load allocates nothing once the pool is
// warm. A token leaves the freelist only when the port keeps it (an async
// load) and returns when its callback fires.
type doneToken struct {
	c    *Core
	idx  uint64
	pos  uint64 // absolute loadRing position of the load's entry
	fn   event.Func
	next *doneToken
}

// complete marks the load issued as instruction idx finished and resumes the
// core. The token's absolute ring position resolves the entry directly: a
// pending load is never popped (popCompleted stops at a pending head), so
// pos-popped is always a live offset and no window scan is needed.
func (d *doneToken) complete(now uint64) {
	c := d.c
	p := c.outstanding.At(int(d.pos - c.outstanding.popped))
	if p.idx != d.idx || !p.pending {
		panic(fault.Invariantf("cpu", "core %d: completion token for instr %d resolved to instr %d (pending=%v)",
			c.ID, d.idx, p.idx, p.pending))
	}
	c.putToken(d)
	p.pending = false
	// run() will set c.time >= now, so this entry is no longer live; retire
	// its MSHR slot immediately.
	c.inflight--
	c.run(now)
}

// Core simulates one processor core.
type Core struct {
	ID  int
	cfg config.Core

	q    *event.Queue
	src  trace.Source
	port MemPort

	warmBudget  uint64
	measBudget  uint64
	budgetMark  uint64 // next retired count needing warm/finish handling
	retired     uint64
	time        uint64   // core-local time, >= q.Now() when running
	outstanding loadRing // async loads, in issue order
	inflight    int      // live MSHR slots, kept exact incrementally
	syncDone    []uint64 // completion times of in-flight sync loads, ascending

	runFn  event.Func // pre-bound c.run, shared by every wakeup
	tokens *doneToken // pooled load-completion callbacks
	live   int        // tokens handed out and not yet recycled

	filler   filler // src as a filler, or nil when it has only Next
	block    [blockLen]trace.Op
	blockPos int // next unread record in block; blockLen when spent

	warmed   bool
	MarkTime uint64 // cycle at which the core crossed its warm boundary

	Finished bool
	FinishAt uint64
	halted   bool

	onWarm   func(core int)
	onFinish func(core int, now uint64)

	running bool

	// Stall diagnostics.
	StallCycles uint64
}

// New creates a core that will retire warm+meas instructions from src.
func New(id int, cfg config.Core, q *event.Queue, src trace.Source, port MemPort,
	warm, meas uint64, onWarm func(int), onFinish func(int, uint64)) *Core {
	c := &Core{
		ID: id, cfg: cfg, q: q, src: src, port: port,
		warmBudget: warm, measBudget: meas,
		onWarm: onWarm, onFinish: onFinish,
		syncDone: make([]uint64, 0, max(cfg.MSHRs, 0)),
		blockPos: blockLen,
	}
	c.filler, _ = src.(filler)
	c.runFn = c.run
	c.updateMark()
	return c
}

// updateMark recomputes the next retired count at which the retire loop must
// take the warm/finish slow path; once both have fired the mark is parked
// beyond any reachable count.
func (c *Core) updateMark() {
	m := ^uint64(0)
	if !c.Finished {
		m = c.warmBudget + c.measBudget
	}
	if !c.warmed && c.warmBudget < m {
		m = c.warmBudget
	}
	c.budgetMark = m
}

// crossMark handles the warm and finish boundaries. It fires on exactly the
// iterations where the per-op checks it replaces would have fired: budgetMark
// is the smallest retired count at which either check could trigger.
func (c *Core) crossMark() {
	if !c.Finished && c.retired >= c.warmBudget+c.measBudget {
		c.finish()
	}
	if !c.warmed && c.retired >= c.warmBudget {
		c.warmed = true
		c.MarkTime = c.time
		if c.onWarm != nil {
			c.onWarm(c.ID)
		}
	}
	c.updateMark()
}

// nextToken returns the completion token the next load hands the port: the
// freelist head, grown by one when the list is empty. The token stays on the
// list until takeToken, so a load the port answers synchronously costs no
// pool traffic.
func (c *Core) nextToken() *doneToken {
	if c.tokens == nil {
		d := &doneToken{c: c}
		d.fn = d.complete
		c.tokens = d
	}
	return c.tokens
}

// takeToken removes the freelist head, the token nextToken returned, for
// the async load issued as instruction idx.
func (c *Core) takeToken(idx uint64) *doneToken {
	d := c.tokens
	c.tokens = d.next
	d.next = nil
	d.idx = idx
	c.live++
	return d
}

func (c *Core) putToken(d *doneToken) {
	d.next = c.tokens
	c.tokens = d
	c.live--
}

// LiveTokens reports load-completion tokens handed out and not yet
// recycled: zero once the event queue has drained (the freelist-leak
// invariant).
func (c *Core) LiveTokens() int { return c.live }

// Retired returns the instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// CheckMSHRs verifies the core's miss-status accounting, for the watchdog's
// -check mode: live MSHR slots must stay within [0, MSHRs] and equal the
// pending async loads in the window plus the sync completion times held.
func (c *Core) CheckMSHRs() error {
	if c.inflight < 0 || c.inflight > c.cfg.MSHRs {
		return fault.Invariantf("cpu", "core %d: %d MSHRs in flight outside [0, %d]",
			c.ID, c.inflight, c.cfg.MSHRs)
	}
	pending := 0
	for i := 0; i < c.outstanding.Len(); i++ {
		if c.outstanding.At(i).pending {
			pending++
		}
	}
	if c.inflight != pending+len(c.syncDone) {
		return fault.Invariantf("cpu", "core %d: %d MSHRs in flight but %d pending loads and %d sync loads held",
			c.ID, c.inflight, pending, len(c.syncDone))
	}
	return nil
}

// MeasuredInstructions returns instructions retired after the warm boundary,
// capped at the measurement budget (cores keep executing past the budget to
// sustain load, but the extra instructions are not measured).
func (c *Core) MeasuredInstructions() uint64 {
	if !c.warmed {
		return 0
	}
	n := c.retired - c.warmBudget
	if n > c.measBudget {
		n = c.measBudget
	}
	return n
}

// IPC returns the measured-phase instructions per cycle (valid once
// finished).
func (c *Core) IPC() float64 {
	if !c.Finished || c.FinishAt <= c.MarkTime {
		return 0
	}
	return float64(c.MeasuredInstructions()) / float64(c.FinishAt-c.MarkTime)
}

// Start schedules the core's first execution slice.
func (c *Core) Start() {
	c.q.At(c.q.Now(), c.runFn)
}

// Halt stops the core from issuing further instructions: subsequent run
// invocations only release completed loads. A halted core schedules no new
// wakeups, so once its in-flight loads complete it contributes no more
// events. Tests halt every core after measurement to drain the event queue
// to empty (which would otherwise never happen — finished cores keep
// executing to sustain load on the shared memory system).
func (c *Core) Halt() { c.halted = true }

// run advances the core until it must wait for a load or yields its
// quantum. It is the single state machine for the core and is re-invoked by
// timer wakeups and load-completion callbacks.
//
// A core that exhausts its instruction budget keeps executing (its later
// instructions are not counted): rate-mode measurement ends when the
// slowest core completes its budget, and the fast cores must keep loading
// the shared memory system until then so contention stays realistic.
func (c *Core) run(now uint64) {
	if c.running {
		return
	}
	c.running = true
	defer c.endRun()

	if c.time < now {
		c.time = now
	}
	for {
		c.popCompleted()
		if c.halted {
			return
		}

		if c.retired >= c.budgetMark {
			c.crossMark()
		}

		// Stall checks. A full MSHR file or exhausted window blocks issue
		// until the relevant load completes (MSHRs free on completion
		// regardless of order: async frees in the callback, sync frees as
		// core time passes the completion time recorded in syncDone).
		if len(c.syncDone) > 0 && c.syncDone[0] <= c.time {
			c.drainSync()
		}
		if c.inflight >= c.cfg.MSHRs {
			c.waitForMSHR()
			return
		}
		if c.outstanding.Len() > 0 && c.retired-c.outstanding.At(0).idx >= uint64(c.cfg.Window) {
			// popCompleted left a pending load at the head: its callback
			// resumes the core.
			return
		}

		if c.blockPos == blockLen {
			c.refill()
		}
		op := &c.block[c.blockPos]
		c.blockPos++

		// Charge front-end throughput for the non-memory instructions plus
		// the memory instruction itself.
		instrs := uint64(op.NonMem) + 1
		c.time += (instrs + uint64(c.cfg.Width) - 1) / uint64(c.cfg.Width)
		c.retired += instrs

		if op.Store {
			c.port.Store(c.time, c.ID, op.Line, op.PC)
		} else {
			completeAt, sync := c.port.Load(c.time, c.ID, op.Line, op.PC, c.nextToken().fn)
			if sync {
				// The port answered without keeping the callback. The load
				// holds an MSHR until completeAt but never enters the
				// window: it completes before it could stall it (SyncLimit).
				if completeAt > c.time {
					c.addSync(completeAt)
				}
			} else {
				// done fires strictly later (MemPort contract), so the
				// token learns its load and ring position after Load.
				tok := c.takeToken(c.retired)
				tok.pos = c.outstanding.popped + uint64(c.outstanding.n)
				c.outstanding.Push(pendingLoad{idx: c.retired, pending: true})
				c.inflight++
			}
		}

		if c.time > now+quantum {
			// Yield; resume when global time catches up.
			c.q.At(c.time, c.runFn)
			return
		}
	}
}

// refill draws the next block of trace records: through Fill when the
// Source has one, else one Next call per record.
func (c *Core) refill() {
	if c.filler != nil {
		c.filler.Fill(c.block[:])
	} else {
		for i := range c.block {
			c.src.Next(&c.block[i])
		}
	}
	c.blockPos = 0
}

// addSync holds an MSHR slot for a sync load completing at t, keeping
// syncDone ascending. The slice holds at most MSHRs entries (each is a live
// slot), so its first allocation is its last.
func (c *Core) addSync(t uint64) {
	s := append(c.syncDone, t)
	i := len(s) - 1
	for ; i > 0 && s[i-1] > t; i-- {
		s[i] = s[i-1]
	}
	s[i] = t
	c.syncDone = s
	c.inflight++
}

// drainSync frees the slots of the sync loads complete by core time. The
// caller has checked that the head is due.
func (c *Core) drainSync() {
	n := 1
	for n < len(c.syncDone) && c.syncDone[n] <= c.time {
		n++
	}
	c.syncDone = c.syncDone[:copy(c.syncDone, c.syncDone[n:])]
	c.inflight -= n
}

// endRun clears the reentrancy guard when run unwinds. A method value
// deferred directly stays off the heap; the equivalent closure allocated
// once per run invocation.
func (c *Core) endRun() { c.running = false }

// popCompleted releases finished loads in program order.
func (c *Core) popCompleted() {
	for c.outstanding.Len() > 0 && !c.outstanding.At(0).pending {
		c.outstanding.PopFront()
	}
}

// waitForMSHR schedules the core's resumption from a full MSHR file. The
// caller just drained syncDone to c.time, so its head, if any, is the
// earliest slot to free; otherwise every slot is a pending async load, whose
// callback resumes the core.
func (c *Core) waitForMSHR() {
	if len(c.syncDone) > 0 {
		wake := c.syncDone[0]
		c.StallCycles += wake - c.time
		c.q.At(wake, c.runFn)
	}
}

func (c *Core) finish() {
	c.Finished = true
	c.FinishAt = c.time
	if c.onFinish != nil {
		c.onFinish(c.ID, c.time)
	}
}
