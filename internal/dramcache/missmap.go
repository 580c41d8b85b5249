package dramcache

import (
	"math/bits"

	"bear/internal/fault"
	"bear/internal/sram"
)

// MissMap is the Loh-Hill presence tracker (MICRO 2011): an SRAM structure
// holding one entry per 4 KB memory segment with a bit vector marking which
// of the segment's 64 lines are resident in the DRAM cache. A hit in the
// MissMap answers presence without touching the DRAM array; the structure
// is capacity-bounded, and evicting a segment entry requires evicting all
// of its resident lines from the cache (otherwise presence knowledge would
// be lost and stale data could be served).
//
// The BEAR paper models the MissMap with the L3's latency (24 cycles),
// which the LohHill design adds on every request.
type MissMap struct {
	tags     *sram.Cache // keyed by segment number
	bits     []uint64    // per-frame residency vector, indexed by tag slot
	linesPer uint64

	// onEvictLine is invoked for every resident line lost to a segment
	// eviction; the owner must invalidate it in the DRAM cache.
	onEvictLine func(line uint64)

	// Diagnostics.
	SegEvictions     uint64
	LinesEvicted     uint64
	PresentchecksHit uint64
}

// NewMissMap builds a MissMap with the given entry capacity (segments) and
// associativity, covering segments of linesPer lines (64 for 4 KB).
func NewMissMap(segments uint64, ways int, linesPer uint64, onEvictLine func(uint64)) *MissMap {
	if linesPer == 0 || linesPer > 64 {
		panic(fault.Invariantf("dramcache", "missmap segment size must be 1..64 lines, got %d", linesPer))
	}
	sets := segments / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	return &MissMap{
		tags:        sram.New(sets, ways),
		bits:        make([]uint64, sets*uint64(ways)),
		linesPer:    linesPer,
		onEvictLine: onEvictLine,
	}
}

func (m *MissMap) split(line uint64) (segment uint64, bit uint64) {
	return line / m.linesPer, uint64(1) << (line % m.linesPer)
}

// Present reports whether line is marked resident.
func (m *MissMap) Present(line uint64) bool {
	seg, bit := m.split(line)
	frame, ok := m.tags.Slot(seg)
	return ok && m.bits[frame]&bit != 0
}

// Set marks line resident, allocating (and possibly evicting) a segment
// entry. Eviction invokes onEvictLine for every line the victim segment
// still tracked.
func (m *MissMap) Set(line uint64) {
	seg, bit := m.split(line)
	if frame, ok := m.tags.Slot(seg); ok {
		m.tags.Access(seg, false)
		m.bits[frame] |= bit
		return
	}
	ev := m.tags.Fill(seg, false, 0)
	frame, _ := m.tags.Slot(seg) // the fill's slot, through the way hint
	if ev.Valid {
		m.SegEvictions++
		vec := m.bits[frame]
		for off := uint64(0); off < m.linesPer; off++ {
			if vec&(1<<off) != 0 {
				m.LinesEvicted++
				if m.onEvictLine != nil {
					m.onEvictLine(ev.Addr*m.linesPer + off)
				}
			}
		}
	}
	m.bits[frame] = bit
}

// Clear unmarks line (called when the DRAM cache evicts it).
func (m *MissMap) Clear(line uint64) {
	seg, bit := m.split(line)
	if frame, ok := m.tags.Slot(seg); ok {
		m.bits[frame] &^= bit
	}
}

// Count returns the number of resident lines tracked (tests).
func (m *MissMap) Count() int {
	n := 0
	m.tags.Range(func(l sram.Line) bool {
		frame, _ := m.tags.Slot(l.Addr)
		n += bits.OnesCount64(m.bits[frame])
		return true
	})
	return n
}
