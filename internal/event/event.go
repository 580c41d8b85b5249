// Package event implements the discrete-event simulation kernel.
//
// The simulator is organised around a single Queue of timestamped callbacks.
// Components (cores, DRAM channels, caches) never step cycle by cycle;
// instead they schedule a callback for the cycle at which something
// interesting happens (a data burst finishes, a stalled core may resume).
// Events at equal timestamps run in scheduling order, which makes every
// simulation fully deterministic.
//
// The queue is two-level. Near-future events — the dominant enqueue→complete
// pattern, where a DRAM burst or core wakeup lands within a few thousand
// cycles of now — go into a calendar: a power-of-two ring of one-cycle
// buckets, each a FIFO list threaded through a reusable node slab, so both
// push and pop are O(1) with no comparisons. Far-future events (beyond the
// calendar horizon: refresh-window push-outs, watchdog-scale timers) spill
// into an inlined 4-ary heap that acts as a backstop; the pop path merges
// the two by comparing (cycle, scheduling order), so the execution order is
// exactly that of a single totally-ordered queue. An occupancy bitmap over
// the buckets lets the pop scan skip empty cycles a word at a time.
//
// Queues are reusable via Reset, so a worker pool running many simulations
// back to back keeps one grown node slab and backing array per worker.
package event

import (
	"math/bits"

	"bear/internal/fault"
)

// Func is a callback invoked when simulated time reaches its scheduled cycle.
// The argument is the current simulation time in CPU cycles.
type Func func(now uint64)

// Calendar geometry. The bucket width is one cycle (2^0) and the wheel holds
// calBuckets of them, so an event scheduled at cycle at with at-now <
// calBuckets maps injectively to bucket at&calMask: while the event is
// pending, no other pending cycle shares its bucket. Events at or beyond the
// horizon spill into the heap. Both constants must stay powers of two so
// bucket indexing and the bitmap scan are masks, not divisions.
const (
	calBuckets = 1 << 13
	calMask    = calBuckets - 1
	calWords   = calBuckets / 64
)

// calNode is one calendar entry. Nodes live in a per-queue slab and are
// linked into per-bucket FIFO lists by slab index; index+1 is stored so the
// zero value means "none" and freshly grown head/tail arrays need no fill.
type calNode struct {
	at   uint64
	seq  uint64
	fn   Func
	next int32 // slab index + 1 of the next node in the bucket, 0 = none
}

type item struct {
	at  uint64
	seq uint64
	fn  Func
}

// less orders items by (time, scheduling order); seq breaks ties so that
// same-cycle events run FIFO and every run is deterministic.
func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use. Queue is not safe for concurrent use; each simulation is
// single-threaded by design (parallel sweeps run one Queue per simulation).
type Queue struct {
	// Calendar (near-future) level.
	nodes []calNode // node slab; grown once, reused via the freelist
	free  int32     // slab index + 1 of the freelist head, 0 = none
	heads []int32   // per-bucket FIFO head (slab index + 1), nil until first use
	tails []int32   // per-bucket FIFO tail (slab index + 1)
	occ   []uint64  // per-bucket occupancy bitmap, one bit per bucket
	calN  int       // events currently in the calendar
	scan  uint64    // lower bound on the earliest pending calendar cycle

	// Heap (far-future) backstop.
	h []item

	seq uint64
	now uint64
}

// Now returns the current simulation time in CPU cycles.
func (q *Queue) Now() uint64 { return q.now }

// Executed returns the number of events run since the queue was created or
// last Reset: an exact count of the simulator's work, unlike a timing.
// Every event At accepts takes the next seq and leaves the queue only by
// running, so the count is the events numbered that are no longer pending,
// and Step pays nothing for it.
func (q *Queue) Executed() uint64 { return q.seq - uint64(q.Len()) }

// At schedules fn to run at cycle at. Scheduling in the past is a programming
// error and panics with a *fault.Invariant, because it would silently
// corrupt causality.
func (q *Queue) At(at uint64, fn Func) {
	if at < q.now {
		panic(fault.Invariantf("event", "scheduled at cycle %d, before now %d", at, q.now))
	}
	q.seq++
	if at-q.now < calBuckets {
		q.pushCal(at, fn)
		return
	}
	q.h = append(q.h, item{at: at, seq: q.seq, fn: fn})
	q.up(len(q.h) - 1)
}

// After schedules fn to run delay cycles from now.
func (q *Queue) After(delay uint64, fn Func) {
	q.At(q.now+delay, fn)
}

// pushCal appends an event to its cycle's bucket in O(1).
func (q *Queue) pushCal(at uint64, fn Func) {
	if q.heads == nil {
		q.heads = make([]int32, calBuckets)
		q.tails = make([]int32, calBuckets)
		q.occ = make([]uint64, calWords)
	}
	ref := q.free
	if ref != 0 {
		q.free = q.nodes[ref-1].next
	} else {
		q.nodes = append(q.nodes, calNode{})
		ref = int32(len(q.nodes))
	}
	n := &q.nodes[ref-1]
	n.at, n.seq, n.fn, n.next = at, q.seq, fn, 0

	b := at & calMask
	if t := q.tails[b]; t != 0 {
		q.nodes[t-1].next = ref
	} else {
		q.heads[b] = ref
		q.occ[b>>6] |= 1 << (b & 63)
	}
	q.tails[b] = ref
	if q.calN == 0 || at < q.scan {
		q.scan = at
	}
	q.calN++
}

// nextCalCycle returns the earliest cycle with a pending calendar event. It
// must only be called with calN > 0. The scan starts at the cached lower
// bound and walks the occupancy bitmap a word at a time, then caches the
// answer — pops and time advance only move the bound forward, pushes behind
// it lower it, so the scan is amortised O(1) per event.
func (q *Queue) nextCalCycle() uint64 {
	s := q.scan
	if s < q.now {
		s = q.now
	}
	b := s & calMask
	w := b >> 6
	word := q.occ[w] &^ (1<<(b&63) - 1)
	for {
		if word != 0 {
			bucket := w<<6 + uint64(bits.TrailingZeros64(word))
			c := s + ((bucket - b) & calMask)
			q.scan = c
			return c
		}
		w = (w + 1) & (calWords - 1)
		word = q.occ[w]
	}
}

// popCal removes and returns the head event of cycle c's bucket.
func (q *Queue) popCal(c uint64) (fn Func) {
	b := c & calMask
	ref := q.heads[b]
	n := &q.nodes[ref-1]
	fn = n.fn
	q.heads[b] = n.next
	if n.next == 0 {
		q.tails[b] = 0
		q.occ[b>>6] &^= 1 << (b & 63)
	}
	n.fn = nil
	n.next = q.free
	q.free = ref
	q.calN--
	return fn
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.calN + len(q.h) }

// Reset empties the queue and rewinds time to cycle 0, keeping the grown
// node slab and backing arrays so the next simulation pushes without
// reallocating. Pending callbacks are dropped and their references cleared.
func (q *Queue) Reset() {
	if q.calN > 0 {
		for w, word := range q.occ {
			for word != 0 {
				b := uint64(w)<<6 + uint64(bits.TrailingZeros64(word))
				word &^= 1 << (b & 63)
				q.heads[b] = 0
				q.tails[b] = 0
			}
			q.occ[w] = 0
		}
	}
	for i := range q.nodes {
		q.nodes[i] = calNode{}
	}
	q.nodes = q.nodes[:0]
	q.free = 0
	q.calN = 0
	q.scan = 0
	for i := range q.h {
		q.h[i] = item{}
	}
	q.h = q.h[:0]
	q.seq = 0
	q.now = 0
}

// up restores heap order from leaf i toward the root (4-ary: parent of i is
// (i-1)/4). The moving item is held in a register and written once.
func (q *Queue) up(i int) {
	it := q.h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !it.less(q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = it
}

// down sifts it from the root into a heap of len(q.h) items (the root slot
// is treated as vacant).
func (q *Queue) down(it item) {
	n := len(q.h)
	i := 0
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q.h[j].less(q.h[m]) {
				m = j
			}
		}
		if !q.h[m].less(it) {
			break
		}
		q.h[i] = q.h[m]
		i = m
	}
	q.h[i] = it
}

// popHeap removes the heap's root event.
func (q *Queue) popHeap() (fn Func) {
	n := len(q.h)
	fn = q.h[0].fn
	last := q.h[n-1]
	q.h[n-1] = item{} // drop the callback reference
	q.h = q.h[:n-1]
	if n > 1 {
		q.down(last)
	}
	return fn
}

// peek returns the timestamp of the earliest pending event.
func (q *Queue) peek() (at uint64, ok bool) {
	switch {
	case q.calN == 0 && len(q.h) == 0:
		return 0, false
	case q.calN == 0:
		return q.h[0].at, true
	case len(q.h) == 0:
		return q.nextCalCycle(), true
	}
	c := q.nextCalCycle()
	if q.h[0].at < c {
		return q.h[0].at, true
	}
	return c, true
}

// Step runs the earliest pending event and returns true, or returns false if
// the queue is empty. The calendar and the heap are merged by (cycle,
// scheduling order), so a far-future event that has aged into the calendar's
// window still runs in exactly its scheduled position.
func (q *Queue) Step() bool {
	var at uint64
	var fn Func
	switch {
	case q.calN == 0 && len(q.h) == 0:
		return false
	case len(q.h) == 0:
		at = q.nextCalCycle()
		fn = q.popCal(at)
	case q.calN == 0:
		at = q.h[0].at
		fn = q.popHeap()
	default:
		c := q.nextCalCycle()
		top := q.h[0]
		if top.at < c || (top.at == c && top.seq < q.nodes[q.heads[c&calMask]-1].seq) {
			at = top.at
			fn = q.popHeap()
		} else {
			at = c
			fn = q.popCal(c)
		}
	}
	q.now = at
	fn(at)
	return true
}

// Run executes events until the queue drains or until stop returns true.
// A nil stop runs to drain. It returns the final simulation time.
func (q *Queue) Run(stop func() bool) uint64 {
	for {
		if stop != nil && stop() {
			return q.now
		}
		if !q.Step() {
			return q.now
		}
	}
}

// RunUntil executes events with timestamps <= deadline (events scheduled at
// later cycles remain queued) and advances time to deadline if the queue ran
// dry earlier.
func (q *Queue) RunUntil(deadline uint64) {
	for {
		at, ok := q.peek()
		if !ok || at > deadline {
			break
		}
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}
