package event

import (
	"sync"
	"testing"
	"testing/quick"

	"bear/internal/fault"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func(uint64) { got = append(got, 3) })
	q.At(10, func(uint64) { got = append(got, 1) })
	q.At(20, func(uint64) { got = append(got, 2) })
	q.Run(nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if q.Now() != 30 {
		t.Fatalf("final time = %d, want 30", q.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(5, func(uint64) { got = append(got, i) })
	}
	q.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var q Queue
	var trace []uint64
	q.At(1, func(now uint64) {
		trace = append(trace, now)
		q.At(now+5, func(now2 uint64) {
			trace = append(trace, now2)
		})
	})
	q.Run(nil)
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 6 {
		t.Fatalf("nested scheduling trace = %v", trace)
	}
}

func TestAfter(t *testing.T) {
	var q Queue
	q.At(10, func(now uint64) {
		q.After(7, func(now2 uint64) {
			if now2 != 17 {
				t.Errorf("After fired at %d, want 17", now2)
			}
		})
	})
	q.Run(nil)
}

// TestPastSchedulingPanics pins the past-time check to a typed fault, so
// the experiment Runner's recover boundary can classify it.
func TestPastSchedulingPanics(t *testing.T) {
	var q Queue
	q.At(10, func(uint64) {})
	q.Step()
	defer func() {
		inv, ok := recover().(*fault.Invariant)
		if !ok || inv.Component != "event" {
			t.Fatalf("scheduling in the past raised %v, want an event *fault.Invariant", inv)
		}
	}()
	q.At(5, func(uint64) {})
}

func TestStopPredicate(t *testing.T) {
	var q Queue
	count := 0
	for i := 1; i <= 10; i++ {
		q.At(uint64(i), func(uint64) { count++ })
	}
	q.Run(func() bool { return count >= 3 })
	if count != 3 {
		t.Fatalf("ran %d events, want 3", count)
	}
	if q.Len() != 7 {
		t.Fatalf("queue has %d events left, want 7", q.Len())
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var ran []uint64
	for _, at := range []uint64{5, 10, 15, 20} {
		at := at
		q.At(at, func(uint64) { ran = append(ran, at) })
	}
	q.RunUntil(12)
	if len(ran) != 2 || q.Executed() != 2 {
		t.Fatalf("RunUntil(12) ran %v, counting %d events", ran, q.Executed())
	}
	if q.Now() != 12 {
		t.Fatalf("RunUntil left time at %d, want 12", q.Now())
	}
	q.RunUntil(100)
	if len(ran) != 4 || q.Now() != 100 || q.Executed() != 4 {
		t.Fatalf("RunUntil(100): ran=%v now=%d executed=%d", ran, q.Now(), q.Executed())
	}
}

func TestReset(t *testing.T) {
	var q Queue
	ran := 0
	for i := 1; i <= 5; i++ {
		q.At(uint64(i), func(uint64) { ran++ })
	}
	q.Step()
	q.Reset()
	if q.Len() != 0 || q.Now() != 0 || q.Executed() != 0 {
		t.Fatalf("after Reset: len=%d now=%d executed=%d, want 0/0/0", q.Len(), q.Now(), q.Executed())
	}
	// The queue must be fully reusable: time restarts at zero (scheduling
	// at cycle 0 is legal again) and FIFO tie-breaking starts over.
	var got []int
	q.At(0, func(uint64) { got = append(got, 0) })
	q.At(0, func(uint64) { got = append(got, 1) })
	q.Run(nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 || q.Executed() != 2 {
		t.Fatalf("reused queue ran %v, counting %d events, want [0 1]", got, q.Executed())
	}
	if ran != 1 {
		t.Fatalf("stale callbacks survived Reset: ran=%d", ran)
	}
}

func TestStepEmpty(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// refQueue is the pre-calendar reference implementation: a single 4-ary heap
// ordered by (time, insertion order). The equivalence tests replay random
// schedules through both implementations and demand identical pop order,
// which pins the calendar/heap merge to the exact semantics of a totally
// ordered queue — including same-cycle FIFO ties.
type refQueue struct {
	h   []item
	seq uint64
	now uint64
}

func (q *refQueue) push(at uint64, fn Func) {
	q.seq++
	q.h = append(q.h, item{at: at, seq: q.seq, fn: fn})
	i := len(q.h) - 1
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

func (q *refQueue) step() bool {
	n := len(q.h)
	if n == 0 {
		return false
	}
	it := q.h[0]
	last := q.h[n-1]
	q.h = q.h[:n-1]
	if n > 1 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n-1 {
				break
			}
			end := c + 4
			if end > n-1 {
				end = n - 1
			}
			m := c
			for j := c + 1; j < end; j++ {
				if q.h[j].less(q.h[m]) {
					m = j
				}
			}
			if !q.h[m].less(last) {
				break
			}
			q.h[i] = q.h[m]
			i = m
		}
		q.h[i] = last
	}
	q.now = it.at
	it.fn(q.now)
	return true
}

// TestCalendarHeapEquivalence replays randomized schedules — pops
// interleaved with pushes whose delays straddle the calendar horizon, with
// deliberate same-cycle bursts — through the two-level queue and the
// reference heap, and requires the exact same (cycle, id) pop sequence.
func TestCalendarHeapEquivalence(t *testing.T) {
	x := uint64(12345)
	rnd := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for trial := 0; trial < 50; trial++ {
		var q Queue
		var ref refQueue
		type rec struct {
			at uint64
			id int
		}
		var got, want []rec
		id := 0
		push := func(delay uint64) {
			i := id
			id++
			q.At(q.Now()+delay, func(now uint64) { got = append(got, rec{now, i}) })
			ref.push(ref.now+delay, func(now uint64) { want = append(want, rec{now, i}) })
		}
		for i := 0; i < 64; i++ {
			push(rnd(3 * calBuckets)) // ~1/3 beyond the horizon
		}
		for q.Len() > 0 {
			// Pop one, then sometimes push a burst of same-cycle and
			// near/far-future events so ties and spills keep occurring as
			// time advances.
			q.Step()
			ref.step()
			if id < 4000 && rnd(4) == 0 {
				n := rnd(6)
				for j := uint64(0); j < n; j++ {
					switch rnd(4) {
					case 0:
						push(0) // same-cycle tie
					case 1:
						push(rnd(64))
					case 2:
						push(calBuckets - 1 + rnd(3)) // horizon boundary
					default:
						push(calBuckets * (1 + rnd(3)))
					}
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: popped %d events, reference popped %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
		if q.Now() != ref.now {
			t.Fatalf("trial %d: final time %d, reference %d", trial, q.Now(), ref.now)
		}
	}
}

// TestFarFutureBackstop pins the spill path: events beyond the calendar
// horizon run in scheduled order, including ties against calendar events at
// the same cycle scheduled later (the heap event was scheduled first, so it
// must pop first).
func TestFarFutureBackstop(t *testing.T) {
	var q Queue
	var got []int
	far := uint64(calBuckets + 7)
	q.At(far, func(uint64) { got = append(got, 0) }) // spills to the heap
	q.At(1, func(now uint64) {
		// Now far is within the horizon; this lands in the calendar at the
		// same cycle but with a later seq.
		q.At(far, func(uint64) { got = append(got, 1) })
	})
	q.At(2*calBuckets+5, func(uint64) { got = append(got, 2) })
	q.Run(nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("backstop pop order = %v, want [0 1 2]", got)
	}
	if q.Now() != 2*calBuckets+5 {
		t.Fatalf("final time = %d", q.Now())
	}
}

// TestResetReusePooled exercises the sync.Pool reuse pattern the worker pool
// relies on: a queue that ran a schedule (including spilled events) is
// Reset, pooled, and must behave like new — time at zero, FIFO ties
// starting over, no stale callbacks — while keeping its grown slab.
func TestResetReusePooled(t *testing.T) {
	pool := sync.Pool{New: func() any { return &Queue{} }}
	q := pool.Get().(*Queue)
	stale := 0
	for i := 0; i < 200; i++ {
		q.At(uint64(i%17), func(uint64) { stale++ })
		q.At(uint64(calBuckets+i), func(uint64) { stale++ })
	}
	for i := 0; i < 50; i++ {
		q.Step()
	}
	q.Reset()
	pool.Put(q)

	q = pool.Get().(*Queue)
	if q.Len() != 0 || q.Now() != 0 {
		t.Fatalf("pooled queue not clean: len=%d now=%d", q.Len(), q.Now())
	}
	ran := stale
	var got []int
	q.At(0, func(uint64) { got = append(got, 0) })
	q.At(0, func(uint64) { got = append(got, 1) })
	q.At(calBuckets*2, func(uint64) { got = append(got, 2) })
	q.Run(nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("reused queue ran %v, want [0 1 2]", got)
	}
	if stale != ran {
		t.Fatalf("stale callbacks survived Reset: %d extra", stale-ran)
	}
}

// Property: for any schedule of events, execution order is sorted by
// (time, insertion order).
func TestOrderProperty(t *testing.T) {
	if err := quick.Check(func(times []uint16) bool {
		var q Queue
		type rec struct {
			at  uint64
			seq int
		}
		var got []rec
		for i, at := range times {
			at, i := uint64(at), i
			q.At(at, func(uint64) { got = append(got, rec{at, i}) })
		}
		q.Run(nil)
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
