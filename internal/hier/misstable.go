package hier

// missTable maps an in-flight line address to its miss entry. It replaces a
// Go map on the L3 miss path: pending-set occupancy is bounded by the cores'
// MSHR files (tens of entries), so a small open-addressing table with linear
// probing resolves the merge lookup, the insert, and the fill-time delete in
// one or two probes each, without hashing through the runtime. Deletion uses
// backward shifting, so no tombstones accumulate and probe chains stay
// minimal. Determinism: probe order depends only on inserted keys, and no
// simulation output depends on iteration order.
type missTable struct {
	lines   []uint64
	entries []*missEntry
	mask    uint64
	n       int
}

// missTableSeed spreads line addresses (low-entropy, stride-patterned) over
// the table; the shift keeps the high product bits that the multiply mixes
// best.
const missTableSeed = 0x9e3779b97f4a7c15

func newMissTable() missTable {
	const cap0 = 256 // cores x MSHRs with ample slack; grows if ever exceeded
	return missTable{
		lines:   make([]uint64, cap0),
		entries: make([]*missEntry, cap0),
		mask:    cap0 - 1,
	}
}

func (t *missTable) slot(line uint64) uint64 {
	h := line * missTableSeed
	return (h ^ h>>32) & t.mask
}

// get returns the entry pending for line, or nil.
func (t *missTable) get(line uint64) *missEntry {
	for i := t.slot(line); t.entries[i] != nil; i = (i + 1) & t.mask {
		if t.lines[i] == line {
			return t.entries[i]
		}
	}
	return nil
}

// put inserts line -> e. The caller guarantees line is not present.
func (t *missTable) put(line uint64, e *missEntry) {
	if uint64(t.n)*2 >= uint64(len(t.entries)) {
		t.grow()
	}
	i := t.slot(line)
	for t.entries[i] != nil {
		i = (i + 1) & t.mask
	}
	t.lines[i], t.entries[i] = line, e
	t.n++
}

// del removes line, backward-shifting any displaced followers so lookups
// never cross an empty slot to find their key.
func (t *missTable) del(line uint64) {
	i := t.slot(line)
	for t.entries[i] == nil || t.lines[i] != line {
		if t.entries[i] == nil {
			return // not present
		}
		i = (i + 1) & t.mask
	}
	t.entries[i] = nil
	t.n--
	j := i
	for {
		j = (j + 1) & t.mask
		if t.entries[j] == nil {
			return
		}
		// Move j's key into the hole unless its home slot lies strictly
		// inside (i, j] — in that cyclic window the key is already as close
		// to home as it can get.
		home := t.slot(t.lines[j])
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.lines[i], t.entries[i] = t.lines[j], t.entries[j]
			t.entries[j] = nil
			i = j
		}
	}
}

func (t *missTable) grow() {
	oldLines, oldEntries := t.lines, t.entries
	n := len(oldEntries) * 2
	t.lines = make([]uint64, n)
	t.entries = make([]*missEntry, n)
	t.mask = uint64(n) - 1
	t.n = 0
	for i, e := range oldEntries {
		if e != nil {
			t.put(oldLines[i], e)
		}
	}
}

// each calls fn for every pending (line, entry) pair; fn returning a non-nil
// error stops iteration and returns it.
func (t *missTable) each(fn func(line uint64, e *missEntry) error) error {
	for i, e := range t.entries {
		if e == nil {
			continue
		}
		if err := fn(t.lines[i], e); err != nil {
			return err
		}
	}
	return nil
}
