package event

import "testing"

// BenchmarkEventQueue measures the steady-state push/pop hot path the
// simulator lives in: a rolling window of pending events where every pop
// schedules a replacement a pseudo-random distance in the future. The
// callback is preallocated so the benchmark isolates queue cost from
// closure-capture cost at the call sites. Delays stay inside the calendar
// horizon, matching the simulator's dominant enqueue→complete pattern;
// BenchmarkEventQueueSpill covers the heap backstop.
func BenchmarkEventQueue(b *testing.B) {
	for _, window := range []int{16, 256, 4096} {
		b.Run(benchName(window), func(b *testing.B) {
			var q Queue
			fn := Func(func(uint64) {})
			next := newXorshift()
			for i := 0; i < window; i++ {
				q.At(next()%1024, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Step()
				q.At(q.Now()+next()%1024, fn)
			}
		})
	}
}

// BenchmarkEventQueueSpill drives the far-future backstop: half the pushes
// land beyond the calendar horizon and must flow through the heap.
func BenchmarkEventQueueSpill(b *testing.B) {
	var q Queue
	fn := Func(func(uint64) {})
	next := newXorshift()
	for i := 0; i < 256; i++ {
		q.At(next()%(4*calBuckets), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
		q.At(q.Now()+next()%(4*calBuckets), fn)
	}
}

// TestSteadyStateAllocFree pins the queue kernels' alloc-freedom: once the
// node slab and heap backing array have grown to the working size, At/Step
// allocate nothing — on the calendar fast path and through the spill path
// alike.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue
	fn := Func(func(uint64) {})
	next := newXorshift()
	for i := 0; i < 1024; i++ {
		q.At(next()%(2*calBuckets), fn)
	}
	for i := 0; i < 4096; i++ { // grow everything to steady state
		q.Step()
		q.At(q.Now()+next()%(2*calBuckets), fn)
	}
	allocs := testing.AllocsPerRun(2048, func() {
		q.Step()
		q.At(q.Now()+next()%(2*calBuckets), fn)
	})
	if allocs != 0 {
		t.Fatalf("steady-state At/Step allocated %.2f times per op, want 0", allocs)
	}
}

// xorshift keeps delays deterministic without math/rand.
func newXorshift() func() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}

func benchName(window int) string {
	switch window {
	case 16:
		return "window=16"
	case 256:
		return "window=256"
	default:
		return "window=4096"
	}
}
