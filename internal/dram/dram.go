// Package dram models a multi-channel DRAM subsystem with per-bank row
// buffers, realistic core timings (tCAS/tRCD/tRP/tRAS), a shared per-channel
// data bus, and a USIMM-style scheduler: separate read and write queues per
// channel, reads prioritised over writes, writes drained in batches between
// watermarks, and row-hit-first request selection (an FR-FCFS
// approximation).
//
// Timing is modelled with an occupancy timeline rather than per-cycle
// command stepping: when the scheduler selects a request it computes the
// earliest legal data-burst window given the bank state and bus
// availability, commits the request to that window, and schedules a
// completion event. Queuing delay — the mechanism behind the paper's
// bandwidth-bloat results — emerges from contention for the data bus and
// banks.
//
// The same model instantiates both the stacked-DRAM cache (high bandwidth)
// and the DDR main memory (low bandwidth); only the config differs.
//
// Each pick is one bounded scan of the scanLimit oldest requests of an
// arrival-ordered queue, minimising (burst start, row-miss-after-hit,
// arrival). The scan carries two exact prunes (see pick); reference.go
// keeps the unpruned scan, which -check mode and the differential fuzz
// hold every live pick to. ARCHITECTURE.md ("DRAM scheduling") gives the
// measured reason for each remaining optimization.
//
// The per-transaction hot path is steady-state allocation-free: Request
// objects are recycled through a per-Memory freelist (a request completes
// deterministically in its completion event, where it is returned to the
// pool), each request carries a pre-bound completion callback so scheduling
// one costs no closure allocation, and the per-channel queues are head-index
// rings so the common FCFS dequeue never copies the queue tail.
package dram

import (
	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/fault"
)

// Request describes one DRAM transaction. Channel/Bank/Row must be within
// the configured geometry; Bytes is the data-bus payload.
//
// Requests obtained through Memory.Read / Memory.Write are pooled: the
// Memory recycles them when their completion event fires, so callers must
// not retain them. Externally constructed Requests passed to Enqueue are
// never recycled and stay owned by the caller.
type Request struct {
	Channel int
	Bank    int
	Row     uint64
	Bytes   int
	Write   bool
	// OnComplete, if non-nil, runs when the data burst finishes.
	OnComplete event.Func

	enqueued uint64
	burst    uint64 // data-burst cycles, computed once at Enqueue

	m      *Memory    // memory this request is bound to
	fn     event.Func // pre-bound r.complete, created once per Request
	pooled bool       // came from m's freelist; recycle on completion
	next   *Request   // freelist link
}

// Stats aggregates per-memory counters.
type Stats struct {
	ReadBytes    uint64
	WriteBytes   uint64
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	ReadQDelay   uint64 // sum over reads of (completion - enqueue)
	BusBusy      uint64 // cycles the data bus carried data (all channels)
	MaxReadQLen  int    // peak per-channel read-queue depth
	MaxWriteQLen int    // peak per-channel write-queue depth (drain pressure)
}

// Work counts the scheduler's own effort: the requests enqueued, the picks
// made for them (a pick that stalls on the commit-ahead horizon counts, and
// is made again later), and the candidates priced with a full burst-start
// computation across those picks. It is kept apart from Stats, which is
// reset at the warm boundary and reported in results, so counting never
// touches a result; the reference scan of -check mode is not counted.
type Work struct {
	Requests uint64
	Picks    uint64
	Priced   uint64
}

// AvgReadLatency returns mean read service time (queue + access + burst).
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadQDelay) / float64(s.Reads)
}

// RowHitRate returns the fraction of transactions that hit an open row.
func (s *Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

type bank struct {
	hasOpen   bool
	openRow   uint64
	busyUntil uint64 // end of the bank's last data burst
	lastAct   uint64 // cycle of the last activate (for tRAS)
	openAt    uint64 // cycle the open row became CAS-ready
}

// reqQ is a FIFO request queue with O(1) head removal: a slice plus a head
// index. Removing the head (the common FCFS pick) just advances the index;
// the vacated prefix is reclaimed by compacting on a later push once it
// dominates the backing array, which keeps pushes amortised O(1) without
// ever copying on the scheduler's critical pick path.
type reqQ struct {
	buf  []*Request
	head int
}

// Len reports the number of queued requests.
func (q *reqQ) Len() int { return len(q.buf) - q.head }

// At returns the i-th queued request in FIFO order.
func (q *reqQ) At(i int) *Request { return q.buf[q.head+i] }

// Push appends a request, compacting the dead prefix when it has grown to
// half the backing array.
func (q *reqQ) Push(r *Request) {
	if q.head > 0 && q.head*2 >= cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, r)
}

// RemoveAt removes and returns the i-th queued request. i == 0 is O(1);
// other positions shift the tail, bounded by the scheduler's scan limit.
func (q *reqQ) RemoveAt(i int) *Request {
	j := q.head + i
	r := q.buf[j]
	if i == 0 {
		q.buf[j] = nil
		q.head++
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		}
		return r
	}
	copy(q.buf[j:], q.buf[j+1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	return r
}

type channel struct {
	banks  []bank
	readQ  reqQ
	writeQ reqQ

	busFreeAt uint64
	draining  bool
	committed int // requests holding a reserved bus window

	acts   [4]uint64 // last four activate times (tFAW window)
	actPos int       // index of the oldest entry in acts

	// stallStart memoizes the best feasible burst start of the last pick
	// that failed the commit-ahead horizon, and stallNow the time it was
	// computed at. Candidate starts depend only on queue contents, bank
	// state, the bus, and now — the first three change only in Enqueue and
	// commit (which clear the memo), and starts are monotone in now — so a
	// re-kick at a time >= stallNow can skip the pick while the memoized
	// start still misses the horizon. Kicks are not monotone in time
	// (Enqueue may run at a future issue cycle), so earlier re-kicks must
	// rescan.
	stallStart uint64
	stallNow   uint64
	stallValid bool
}

// drainMode applies the write-drain watermark hysteresis to the current
// mode: drain from the high watermark down to the low one.
func (m *Memory) drainMode(c *channel) bool {
	if c.writeQ.Len() <= m.cfg.WriteQLo {
		return false
	}
	if c.writeQ.Len() >= m.cfg.WriteQHi {
		return true
	}
	return c.draining
}

// source returns the queue the next pick draws from — reads first unless
// draining, writes when no read waits — or nil when both are empty.
func (c *channel) source(draining bool) *reqQ {
	switch {
	case c.readQ.Len() > 0 && !draining:
		return &c.readQ
	case c.writeQ.Len() > 0:
		return &c.writeQ
	case c.readQ.Len() > 0:
		return &c.readQ
	}
	return nil
}

// Memory is one DRAM subsystem.
type Memory struct {
	Name  string
	Stats Stats
	Work  Work // never reset; read deltas around the span of interest

	// SelfCheck makes every scheduling decision re-derive itself through
	// the unpruned reference scan (reference.go) and panic with a typed
	// invariant fault on divergence. The watchdog's -check mode turns it
	// on; it perturbs nothing — picks, timings and stats are identical —
	// and only costs time.
	SelfCheck bool

	cfg  config.DRAM
	q    *event.Queue
	ch   []*channel
	free *Request // recycled Request freelist
	live int      // pooled requests handed out and not yet recycled

	refBase, refEnd uint64 // memoized refresh period [k*tREFI, (k+1)*tREFI)
	refSafe         uint64 // refBase + tRFC: first cycle clear of the period's refresh
	rcdCas          uint64 // tRCD + tCAS: the activate-to-data latency add
}

// New creates a Memory with the given geometry attached to the event queue.
func New(name string, cfg config.DRAM, q *event.Queue) *Memory {
	m := &Memory{Name: name, cfg: cfg, q: q, rcdCas: cfg.TRCD + cfg.TCAS}
	if cfg.TREFI == 0 {
		// No refresh: a degenerate all-time memo makes every alignRefresh
		// take the inline already-aligned path.
		m.refEnd = ^uint64(0)
	}
	m.ch = make([]*channel, cfg.Channels)
	for i := range m.ch {
		m.ch[i] = &channel{banks: make([]bank, cfg.Banks)}
	}
	return m
}

// Config returns the geometry this memory was built with.
func (m *Memory) Config() config.DRAM { return m.cfg }

// get returns a pooled request, allocating (and binding its completion
// callback) only when the freelist is empty.
func (m *Memory) get() *Request {
	m.live++
	r := m.free
	if r == nil {
		r = &Request{m: m, pooled: true}
		r.fn = r.complete
		return r
	}
	m.free = r.next
	r.next = nil
	return r
}

// put recycles a pooled request. Externally owned requests are left alone.
func (m *Memory) put(r *Request) {
	if !r.pooled {
		return
	}
	r.OnComplete = nil
	r.next = m.free
	m.free = r
	m.live--
}

// LiveRequests reports pooled requests handed out and not yet recycled:
// zero once the event queue has drained (the freelist-leak invariant).
func (m *Memory) LiveRequests() int { return m.live }

// Enqueue submits a request. Reads invoke r.OnComplete at data return;
// writes complete silently (posted) but still consume bank and bus time.
// A request outside the geometry, without a payload, or enqueued before
// the queue's current cycle panics with a *fault.Invariant.
func (m *Memory) Enqueue(now uint64, r *Request) {
	if r.Channel < 0 || r.Channel >= m.cfg.Channels {
		panic(fault.Invariantf("dram", "%s: channel %d out of range", m.Name, r.Channel))
	}
	if r.Bank < 0 || r.Bank >= m.cfg.Banks {
		panic(fault.Invariantf("dram", "%s: bank %d out of range", m.Name, r.Bank))
	}
	if r.Bytes <= 0 {
		panic(fault.Invariantf("dram", "%s: request with no payload", m.Name))
	}
	if now < m.q.Now() {
		panic(fault.Invariantf("dram", "%s: request enqueued at cycle %d, before now %d", m.Name, now, m.q.Now()))
	}
	if r.m == nil {
		// Externally constructed: bind the completion callback once.
		r.m = m
		r.fn = r.complete
	} else if r.m != m {
		panic(fault.Invariantf("dram", "%s: request bound to memory %s", m.Name, r.m.Name))
	}
	m.Work.Requests++
	r.enqueued = now
	r.burst = uint64((r.Bytes + m.cfg.BytesPerCycle - 1) / m.cfg.BytesPerCycle)
	c := m.ch[r.Channel]
	if r.Write {
		c.writeQ.Push(r)
		if c.writeQ.Len() > m.Stats.MaxWriteQLen {
			m.Stats.MaxWriteQLen = c.writeQ.Len()
		}
	} else {
		c.readQ.Push(r)
		if c.readQ.Len() > m.Stats.MaxReadQLen {
			m.Stats.MaxReadQLen = c.readQ.Len()
		}
	}
	c.stallValid = false // a new candidate can lower the best feasible start
	m.kick(now, c)
}

// Read submits a pooled read transaction.
func (m *Memory) Read(now uint64, ch, bk int, row uint64, bytes int, done event.Func) {
	r := m.get()
	r.Channel, r.Bank, r.Row, r.Bytes, r.Write, r.OnComplete = ch, bk, row, bytes, false, done
	m.Enqueue(now, r)
}

// Write submits a pooled posted write transaction.
func (m *Memory) Write(now uint64, ch, bk int, row uint64, bytes int) {
	r := m.get()
	r.Channel, r.Bank, r.Row, r.Bytes, r.Write, r.OnComplete = ch, bk, row, bytes, true, nil
	m.Enqueue(now, r)
}

// Pending reports the number of queued (unscheduled) requests, for tests and
// drain checks.
func (m *Memory) Pending() int {
	n := 0
	for _, c := range m.ch {
		n += c.readQ.Len() + c.writeQ.Len() + c.committed
	}
	return n
}

// scanLimit caps how many queued requests the scheduler considers per pick;
// beyond this FR-FCFS degenerates to FCFS, matching real schedulers' bounded
// associative search.
const scanLimit = 16

// kick schedules queued requests onto the channel. Up to one committed
// request per bank may be in flight at once: the data bus serialises bursts,
// but bank activations and precharges overlap across banks, which is where
// DRAM bank-level parallelism comes from.
func (m *Memory) kick(now uint64, c *channel) {
	if c.stallValid {
		if c.committed > 0 && now >= c.stallNow &&
			c.stallStart > max64(now, c.busFreeAt)+m.rcdCas {
			// Nothing relevant changed since the last pick stalled on the
			// horizon, and the horizon still has not caught up: re-picking
			// would reproduce the same stall.
			return
		}
		c.stallValid = false
	}
	for c.committed < m.cfg.Banks {
		c.draining = m.drainMode(c)
		q := c.source(c.draining)
		if q == nil {
			return
		}

		idx, start, hit := m.pick(now, c, q)
		if m.SelfCheck {
			m.verifyPick(now, c, q, idx, start, hit)
		}
		// Commit-ahead discipline: while something is already committed,
		// only reserve bus windows that keep the bus fed. Reserving a
		// distant window (e.g. a tRAS-serialised same-bank chain) would
		// steal reordering freedom from requests that arrive meanwhile;
		// the completion events re-kick the scheduler instead.
		if c.committed > 0 {
			horizon := max64(now, c.busFreeAt) + m.rcdCas
			if start > horizon {
				c.stallStart, c.stallNow, c.stallValid = start, now, true
				return
			}
		}
		m.commit(now, c, q.RemoveAt(idx), start, hit)
	}
}

// pick selects, among the scanLimit oldest requests of q, the one with the
// earliest feasible data-burst start; ties go row-hit-first, then to the
// earlier arrival. The scan keeps the first strict improvement in arrival
// order, and two prunes skip work without changing the winner:
//
//   - No burst starts before the bus frees, and a row hit only loses an
//     equal-start tie to an earlier arrival. So once the best is a row hit
//     starting exactly when the bus frees, no later request can displace
//     it and the scan ends.
//   - A row miss displaces the best only with a strictly earlier start, and
//     its start is at least max(bank busy, now) + tRCD + tCAS and at least
//     the bus-free time. When that bound cannot beat the best, the miss is
//     skipped without the tRAS/tFAW/refresh computation.
func (m *Memory) pick(now uint64, c *channel, q *reqQ) (idx int, start uint64, rowHit bool) {
	busFree := max64(c.busFreeAt, now)
	idx = -1
	priced := uint64(0)
	for i := 0; i < q.Len() && i < scanLimit; i++ {
		r := q.At(i)
		if idx >= 0 {
			b := &c.banks[r.Bank]
			if (!b.hasOpen || b.openRow != r.Row) &&
				max64(max64(b.busyUntil, now)+m.rcdCas, busFree) >= start {
				continue
			}
		}
		s, h := m.burstStart(now, c, r, busFree)
		priced++
		if idx < 0 || s < start || (s == start && h && !rowHit) {
			idx, start, rowHit = i, s, h
			if h && s == busFree {
				break
			}
		}
	}
	m.Work.Picks++
	m.Work.Priced += priced
	return idx, start, rowHit
}

// missReady returns the earliest cycle a row-miss data burst to the bank
// could begin, before bus serialisation and refresh alignment: the bank's
// in-flight burst, tRAS since the last activate, precharge, the
// four-activate window, then tRCD + tCAS.
func (m *Memory) missReady(c *channel, b *bank, now uint64) uint64 {
	prep := max64(b.busyUntil, now)
	if b.hasOpen {
		// Precharge may not begin before tRAS has elapsed since activate.
		prep = max64(prep, b.lastAct+m.cfg.TRAS)
		prep += m.cfg.TRP
	}
	// The activate must respect the four-activate window.
	if m.cfg.TFAW > 0 {
		prep = max64(prep, c.acts[c.actPos]+m.cfg.TFAW)
	}
	return prep + m.rcdCas
}

// burstStart computes the earliest cycle r's data burst could begin.
// Column accesses to an open row pipeline (consecutive row hits stream at
// burst rate, each still paying tCAS of latency); row misses must wait for
// the bank's in-flight burst, tRAS since the last activate, precharge and
// activation.
func (m *Memory) burstStart(now uint64, c *channel, r *Request, busFree uint64) (start uint64, rowHit bool) {
	b := &c.banks[r.Bank]
	if b.hasOpen && b.openRow == r.Row {
		// The CAS could have issued as soon as both the request and the
		// open row existed; deferred scheduling must not re-charge tCAS
		// from the scheduling instant.
		casFrom := max64(r.enqueued, b.openAt)
		return m.alignRefresh(max64(casFrom+m.cfg.TCAS, busFree), r.burst), true
	}
	return m.alignRefresh(max64(m.missReady(c, b, now), busFree), r.burst), false
}

// alignRefresh pushes a data-burst window out of any all-bank refresh
// period. Refreshes occupy [k*tREFI, k*tREFI+tRFC) for k >= 1.
//
// The current refresh period [refBase, refEnd) is memoized on the Memory:
// the scheduler evaluates candidate windows clustered around the present,
// so almost every call lands in the cached period and skips the 64-bit
// division that locating it costs. The memo is a value-pure cache — extra
// calls (reference picks, invariant checks) never change any result.
//
// The split matters: this wrapper stays under the inlining budget, so the
// dominant already-aligned case (inside the memoized period, past its
// refresh window, burst fits) costs three compares and no call. Starts
// below refBase+tRFC fall through even when refBase is 0 and no push is
// due — alignSlow resolves that (rarely hit) case exactly.
func (m *Memory) alignRefresh(start, burst uint64) uint64 {
	if start >= m.refSafe && start+burst <= m.refEnd {
		return start
	}
	return m.alignSlow(start, burst)
}

// alignSlow is alignRefresh's full computation, relocating the memoized
// period as needed. Kept out of line so the wrapper fits the inlining
// budget; unreachable when tREFI is 0 (the degenerate memo always passes).
//
//go:noinline
func (m *Memory) alignSlow(start, burst uint64) uint64 {
	for {
		if start < m.refBase || start >= m.refEnd {
			base := start - start%m.cfg.TREFI
			m.refBase = base
			m.refEnd = base + m.cfg.TREFI
			m.refSafe = base
			if base > 0 {
				m.refSafe = base + m.cfg.TRFC
			}
		}
		if m.refBase > 0 {
			if wEnd := m.refBase + m.cfg.TRFC; start < wEnd {
				start = wEnd
				continue
			}
		}
		if start+burst > m.refEnd {
			start = m.refEnd + m.cfg.TRFC
			continue
		}
		return start
	}
}

func (m *Memory) commit(now uint64, c *channel, r *Request, start uint64, rowHit bool) {
	b := &c.banks[r.Bank]
	burst := r.burst
	end := start + burst

	if !rowHit {
		// Activation completed tCAS before the burst began.
		b.lastAct = start - m.cfg.TCAS - m.cfg.TRCD
		b.openAt = start - m.cfg.TCAS
		c.acts[c.actPos] = b.lastAct
		c.actPos = (c.actPos + 1) % len(c.acts)
		m.Stats.RowMisses++
	} else {
		m.Stats.RowHits++
	}
	b.hasOpen = true
	b.openRow = r.Row
	if end > b.busyUntil {
		b.busyUntil = end
	}
	c.busFreeAt = end
	c.committed++
	m.Stats.BusBusy += burst

	m.q.At(end, r.fn)
}

// complete is the data-burst completion event, pre-bound into r.fn so
// scheduling it allocates nothing. It retires the request's statistics,
// recycles the request, delivers the caller's callback, and re-kicks the
// scheduler — in exactly that order, which the determinism tests pin down.
func (r *Request) complete(t uint64) {
	m := r.m
	c := m.ch[r.Channel]
	if r.Write {
		m.Stats.Writes++
		m.Stats.WriteBytes += uint64(r.Bytes)
	} else {
		m.Stats.Reads++
		m.Stats.ReadBytes += uint64(r.Bytes)
		m.Stats.ReadQDelay += t - r.enqueued
	}
	c.committed--
	done := r.OnComplete
	m.put(r) // fields are dead; the callback may re-issue and reuse r
	if done != nil {
		done(t)
	}
	m.kick(t, c)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Mapper translates linear indices (row numbers or line addresses) to
// channel/bank/row coordinates with channel-first interleaving, which
// spreads consecutive units across channels for parallelism.
type Mapper struct {
	Channels int
	Banks    int
}

// Map translates a linear unit index (e.g. a DRAM row number) into
// (channel, bank, in-bank row).
func (mp Mapper) Map(unit uint64) (ch, bk int, row uint64) {
	ch = int(unit % uint64(mp.Channels))
	unit /= uint64(mp.Channels)
	bk = int(unit % uint64(mp.Banks))
	row = unit / uint64(mp.Banks)
	return ch, bk, row
}
