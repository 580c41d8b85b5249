package sram

import (
	"testing"
	"testing/quick"
)

func TestFillLookup(t *testing.T) {
	c := New(4, 2)
	if _, ok := c.Lookup(5); ok {
		t.Fatal("empty cache reported a hit")
	}
	ev := c.Fill(5, false, 7)
	if ev.Valid {
		t.Fatal("fill into empty set evicted something")
	}
	ln, ok := c.Lookup(5)
	if !ok || ln.Addr != 5 || ln.Dirty || ln.Aux != 7 {
		t.Fatalf("lookup after fill = %+v, %v", ln, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2)
	c.Fill(10, false, 0)
	c.Fill(20, false, 0)
	// Touch 10 so 20 becomes LRU.
	if !c.Access(10, false) {
		t.Fatal("lost line 10")
	}
	ev := c.Fill(30, false, 0)
	if !ev.Valid || ev.Addr != 20 {
		t.Fatalf("evicted %+v, want line 20", ev)
	}
	if _, ok := c.Lookup(10); !ok {
		t.Fatal("MRU line 10 was evicted")
	}
}

func TestDirtyPropagation(t *testing.T) {
	c := New(1, 1)
	c.Fill(1, false, 0)
	if !c.Access(1, true) {
		t.Fatal("access miss")
	}
	ev := c.Fill(2, false, 0)
	if !ev.Valid || !ev.Dirty || ev.Addr != 1 {
		t.Fatalf("dirty eviction = %+v", ev)
	}
}

func TestFillDirty(t *testing.T) {
	c := New(2, 1)
	c.Fill(4, true, 0)
	ln, _ := c.Lookup(4)
	if !ln.Dirty {
		t.Fatal("fill with dirty=true lost the dirty bit")
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := New(8, 1)
	// Addresses 8 apart collide; others don't.
	c.Fill(3, false, 0)
	c.Fill(11, false, 0) // same set, 1 way -> evicts 3
	if _, ok := c.Lookup(3); ok {
		t.Fatal("conflicting line survived in a direct-mapped set")
	}
	if _, ok := c.Lookup(11); !ok {
		t.Fatal("newly filled line missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, 2)
	c.Fill(9, false, 0)
	c.Access(9, true)
	ln, ok := c.Invalidate(9)
	if !ok || !ln.Dirty || ln.Addr != 9 {
		t.Fatalf("invalidate = %+v, %v", ln, ok)
	}
	if _, ok := c.Lookup(9); ok {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate reported a line")
	}
}

func TestAux(t *testing.T) {
	c := New(4, 2)
	c.Fill(6, false, 0)
	if !c.SetAux(6, 3) {
		t.Fatal("SetAux missed present line")
	}
	ln, _ := c.Lookup(6)
	if ln.Aux != 3 {
		t.Fatalf("aux = %d, want 3", ln.Aux)
	}
	if c.SetAux(999, 1) {
		t.Fatal("SetAux on absent line returned true")
	}
}

func TestSetDirty(t *testing.T) {
	c := New(4, 2)
	c.Fill(6, false, 0)
	if !c.SetDirty(6) {
		t.Fatal("SetDirty missed present line")
	}
	ln, _ := c.Lookup(6)
	if !ln.Dirty {
		t.Fatal("dirty bit not set")
	}
	if c.SetDirty(999) {
		t.Fatal("SetDirty on absent line returned true")
	}
}

func TestSlot(t *testing.T) {
	c := New(2, 4)
	// Set 1 spans slab slots 4..7; fills take its free ways in order.
	for way, a := range []uint64{1, 3, 5, 7} {
		c.Fill(a, false, 0)
		if got, ok := c.Slot(a); !ok || got != 4+uint64(way) {
			t.Fatalf("fill of %d landed in slot %d (%v), want %d", a, got, ok, 4+way)
		}
	}
	// Set full: the LRU line's slot is reused.
	c.Access(1, false) // make 1 MRU; LRU is now 3
	if ev := c.Fill(9, false, 0); ev.Addr != 3 {
		t.Fatalf("evicted %d, want LRU line 3", ev.Addr)
	}
	if got, _ := c.Slot(9); got != 5 {
		t.Fatalf("full-set fill landed in slot %d, want line 3's slot 5", got)
	}
	if _, ok := c.Slot(3); ok {
		t.Fatal("evicted line 3 still has a slot")
	}
}

func TestDoubleFillPanics(t *testing.T) {
	c := New(2, 2)
	c.Fill(4, false, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate fill did not panic")
		}
	}()
	c.Fill(4, false, 0)
}

func TestRangeAndCount(t *testing.T) {
	c := New(8, 2)
	for i := uint64(0); i < 10; i++ {
		c.Fill(i, false, 0)
	}
	if c.Count() != 10 {
		t.Fatalf("count = %d", c.Count())
	}
	n := 0
	c.Range(func(Line) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range early exit broke: %d", n)
	}
}

func TestRescale(t *testing.T) {
	c := New(1, 2)
	c.Fill(1, false, 0)
	c.Fill(2, false, 0)
	c.clock = ^uint32(0) - 1 // force stamp overflow soon
	c.Access(1, false)       // uses last stamp
	c.Access(2, false)       // triggers rescale
	// Order must survive: 1 older than 2.
	ev := c.Fill(3, false, 0)
	if ev.Addr != 1 {
		t.Fatalf("after rescale evicted %d, want 1", ev.Addr)
	}
}

// TestRescaleWraparound drives the stamp clock to its wraparound point mid-
// scan and asserts that every set's full LRU order — established by touches
// issued both before and after the rescale — is preserved exactly. The
// renumbering must be invisible: eviction order afterwards equals the touch
// order, across all sets, including sets the overflow-triggering touch never
// visited.
func TestRescaleWraparound(t *testing.T) {
	const sets, ways = 4, 8
	c := New(sets, ways)
	// Fill every set; touch order within set s is addr s, s+sets, s+2*sets...
	for w := 0; w < ways; w++ {
		for s := uint64(0); s < sets; s++ {
			c.Fill(s+uint64(w)*sets, false, 0)
		}
	}
	// Establish a distinctive recency order per set: promote odd ways, so
	// LRU order becomes even ways in fill order, then odd ways.
	for w := 1; w < ways; w += 2 {
		for s := uint64(0); s < sets; s++ {
			c.Access(s+uint64(w)*sets, false)
		}
	}
	// Park the clock so the very next touch hits the wraparound guard.
	c.clock = ^uint32(0)
	c.Access(0, false) // triggers rescale, then re-touches line 0 (set 0)
	if c.clock == ^uint32(0) || c.clock < uint32(ways) {
		t.Fatalf("clock = %d after rescale, want compacted stamps", c.clock)
	}
	// Touches after the rescale must compose with the preserved order.
	c.Access(1+2*sets, false) // set 1, way 2 (an even way) becomes MRU
	wantOrder := map[uint64][]uint64{
		0: {2 * sets, 4 * sets, 6 * sets, sets, 3 * sets, 5 * sets, 7 * sets, 0},
		1: {1, 1 + 4*sets, 1 + 6*sets, 1 + sets, 1 + 3*sets, 1 + 5*sets, 1 + 7*sets, 1 + 2*sets},
		2: {2, 2 + 2*sets, 2 + 4*sets, 2 + 6*sets, 2 + sets, 2 + 3*sets, 2 + 5*sets, 2 + 7*sets},
		3: {3, 3 + 2*sets, 3 + 4*sets, 3 + 6*sets, 3 + sets, 3 + 3*sets, 3 + 5*sets, 3 + 7*sets},
	}
	for s := uint64(0); s < sets; s++ {
		for i, want := range wantOrder[s] {
			ev := c.Fill(s+uint64(ways+i)*sets, false, 0)
			if !ev.Valid || ev.Addr != want {
				t.Fatalf("set %d eviction %d: got %#x want %#x", s, i, ev.Addr, want)
			}
		}
	}
}

// Model-based property test: the cache agrees with a reference map +
// recency list under random operations.
func TestModelEquivalence(t *testing.T) {
	type modelSet struct {
		order []uint64 // LRU order, front = LRU
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(ops []uint16, seed uint8) bool {
		const sets, ways = 4, 3
		c := New(sets, ways)
		model := make([]modelSet, sets)

		touch := func(m *modelSet, addr uint64) {
			for i, a := range m.order {
				if a == addr {
					m.order = append(append(m.order[:i], m.order[i+1:]...), addr)
					return
				}
			}
		}
		for _, op := range ops {
			addr := uint64(op % 64)
			m := &model[addr%sets]
			present := false
			for _, a := range m.order {
				if a == addr {
					present = true
				}
			}
			if _, ok := c.Lookup(addr); ok != present {
				return false
			}
			if present {
				c.Access(addr, false)
				touch(m, addr)
				continue
			}
			ev := c.Fill(addr, false, 0)
			if len(m.order) == ways {
				want := m.order[0]
				if !ev.Valid || ev.Addr != want {
					return false
				}
				m.order = m.order[1:]
			} else if ev.Valid {
				return false
			}
			m.order = append(m.order, addr)
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,0) did not panic")
		}
	}()
	New(0, 0)
}

func TestFillLRU(t *testing.T) {
	c := New(1, 3)
	c.Fill(1, false, 0)
	c.Fill(2, false, 0)
	// LRU-inserted line is the next victim even though it arrived last.
	c.FillLRU(3, false, 0)
	ev := c.Fill(4, false, 0)
	if ev.Addr != 3 {
		t.Fatalf("evicted %d, want the LRU-inserted 3", ev.Addr)
	}
	// A hit promotes an LRU-inserted line like any other.
	c2 := New(1, 2)
	c2.Fill(1, false, 0)
	c2.FillLRU(2, false, 0)
	c2.Access(2, false) // promote
	ev = c2.Fill(3, false, 0)
	if ev.Addr != 1 {
		t.Fatalf("evicted %d, want 1 after promotion of 2", ev.Addr)
	}
}

func TestFillLRUIntoEmptySet(t *testing.T) {
	c := New(1, 2)
	c.FillLRU(7, true, 3)
	ln, ok := c.Lookup(7)
	if !ok || !ln.Dirty || ln.Aux != 3 {
		t.Fatalf("FillLRU into empty set lost metadata: %+v %v", ln, ok)
	}
}

func TestFillLRUStampCollision(t *testing.T) {
	// Two successive LRU-inserts without intervening promotions drive the
	// set's minimum stamp to 0; the second insert must still land strictly
	// below the first (clamping both to 0 would tie them and evict the
	// older insert by way-index accident).
	c := New(1, 4)
	c.Fill(1, false, 0)
	c.Fill(2, false, 0)
	c.FillLRU(3, false, 0) // stamp 0
	c.FillLRU(4, false, 0) // min other stamp is already 0: renumber
	ev := c.Fill(5, false, 0)
	if ev.Addr != 4 {
		t.Fatalf("evicted %d, want 4", ev.Addr)
	}
	// Strict ordering must survive the renumbering for the rest of the set:
	// 3 (older LRU-insert) goes next, then 1 and 2 in fill order.
	for _, want := range []uint64{3, 1, 2} {
		if ev := c.Fill(want+100, false, 0); ev.Addr != want {
			t.Fatalf("evicted %d, want %d", ev.Addr, want)
		}
	}
}

// TestWayHint pins the way-hint contract: the hint is only an accelerator.
// A stale hint may cost a full sweep but can never change which way an
// operation selects or fabricate a hit; Access hits and fills retrain it.
// (With one set, hint entries — slab indices keyed by the address's low
// set bits — coincide with way numbers.)
func TestWayHint(t *testing.T) {
	c := New(1, 4)
	c.Fill(10, false, 0)
	c.Fill(20, false, 0)
	c.Fill(30, false, 0)
	if got := c.hint[0]; got != 2 {
		t.Fatalf("hint after third fill = %d, want 2", got)
	}
	if !c.Access(10, false) {
		t.Fatal("lost line 10")
	}
	if got := c.hint[0]; got != 0 {
		t.Fatalf("hint after re-hit on way 0 = %d, want 0", got)
	}
	// Invalidate the hinted line: the stale hint must neither resurrect it
	// nor misdirect lookups for the set's other lines.
	c.Invalidate(10)
	if _, ok := c.Lookup(10); ok {
		t.Fatal("invalidated line still hits through the hint")
	}
	if !c.Access(30, false) {
		t.Fatal("stale hint broke an unrelated lookup")
	}
	// A fill hints the way it installed into.
	c.Fill(40, false, 0)
	i, ok := c.Slot(40)
	if !ok {
		t.Fatal("lost line 40")
	}
	if got := uint64(c.hint[0]); got != i {
		t.Fatalf("hint = %d after install into slot %d", got, i)
	}
	// FillIfAbsent / FillOrDirty on a present line served via the hint must
	// not install, and FillOrDirty must still set the dirty bit.
	if _, filled := c.FillIfAbsent(40, false, 0); filled {
		t.Fatal("FillIfAbsent re-installed a hinted present line")
	}
	if _, filled := c.FillOrDirty(40, 0); filled {
		t.Fatal("FillOrDirty re-installed a hinted present line")
	}
	if ln, _ := c.Lookup(40); !ln.Dirty {
		t.Fatal("FillOrDirty through the hint lost the dirty bit")
	}
	// Lookup hits train the hint too: a probe miss followed by a sweep hit
	// records the located way for the next probe.
	if _, ok := c.Lookup(20); !ok {
		t.Fatal("lost line 20")
	}
	if i, _ := c.Slot(20); uint64(c.hint[0]) != i {
		t.Fatalf("hint = %d after Lookup hit on slot %d", c.hint[0], i)
	}
}

// BenchmarkAccessRepeatHit is the path the way-hint serves: back-to-back
// hits on one line touch a single tag word instead of sweeping the set.
func BenchmarkAccessRepeatHit(b *testing.B) {
	c := New(1024, 8)
	for i := uint64(0); i < 8*1024; i++ {
		c.Fill(i, false, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(5, false) {
			b.Fatal("miss")
		}
	}
}

// BenchmarkAccessWaySweep defeats the hint on every access (round-robin
// over a set's ways), timing the full-sweep fallback for contrast.
func BenchmarkAccessWaySweep(b *testing.B) {
	c := New(1024, 8)
	for i := uint64(0); i < 8*1024; i++ {
		c.Fill(i, false, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(uint64(i%8)*1024+5, false) {
			b.Fatal("miss")
		}
	}
}

// TestWayHintAliasing pins the masked-hint invariant: hint entries are
// keyed by the address's low set bits, so non-power-of-two geometries
// alias — a hint trained by one set is consulted by another. Tag
// verification must turn every alias into a clean sweep fall-through,
// never a wrong-way hit or a fabricated one.
func TestWayHintAliasing(t *testing.T) {
	c := New(3, 2)      // hintMask = 1: sets 0 and 2 share a hint entry
	c.Fill(6, false, 0) // set 0
	c.Fill(2, false, 0) // set 2; retrains the shared entry
	if !c.Access(6, false) {
		t.Fatal("aliased hint broke a set-0 access")
	}
	if !c.Access(2, false) {
		t.Fatal("retraining ping-pong lost the set-2 line")
	}
	if _, ok := c.Lookup(8); ok { // set 2, never filled
		t.Fatal("aliased hint fabricated a hit")
	}
}
