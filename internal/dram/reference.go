package dram

import "bear/internal/fault"

// This file holds the scheduler's semantic ground truth and the checks that
// hold the live scheduler to it.
//
// refPick is pick without its prunes: price every one of the scanLimit
// oldest requests with burstStart and keep the first strict improvement
// (earliest start, row-hit on ties). Memory.SelfCheck routes every live
// pick through verifyPick, which re-derives the decision with refPick and
// panics with a typed invariant fault on any divergence — queue position,
// start cycle or row-hit bit. The watchdog's -check mode enables it, so
// every golden experiment run doubles as a differential test of the prunes
// on real request streams.

// refPick recomputes a pick by pricing every candidate in the scan window.
func (m *Memory) refPick(now uint64, c *channel, q *reqQ) (idx int, start uint64, rowHit bool) {
	busFree := max64(c.busFreeAt, now)
	idx = -1
	for i := 0; i < q.Len() && i < scanLimit; i++ {
		s, h := m.burstStart(now, c, q.At(i), busFree)
		if idx < 0 || s < start || (s == start && h && !rowHit) {
			idx, start, rowHit = i, s, h
		}
	}
	return idx, start, rowHit
}

// verifyPick asserts that the pruned pick matches the reference scan on the
// same state.
func (m *Memory) verifyPick(now uint64, c *channel, q *reqQ, idx int, start uint64, rowHit bool) {
	ri, rs, rh := m.refPick(now, c, q)
	if ri != idx || rs != start || rh != rowHit {
		panic(fault.Invariantf("dram",
			"%s: pick (pos %d start %d hit %v) diverges from reference (pos %d start %d hit %v) at cycle %d",
			m.Name, idx, start, rowHit, ri, rs, rh, now))
	}
}

// CheckInvariants verifies the scheduler's structural invariants, for the
// watchdog's -check mode:
//
//   - per-channel commit counts stay within the bank count (at most one
//     reserved bus window per bank);
//   - when maxQueued > 0, total request occupancy stays under maxQueued,
//     which converts unbounded queue growth (a stuck scheduler that
//     enqueues but never commits) into a diagnosable error instead of
//     memory exhaustion;
//   - every queued request sits in the queue of its own memory, channel
//     and direction, addressing a bank of the geometry;
//   - a live horizon-stall memo still reproduces from a reference pick at
//     the cycle it was taken.
func (m *Memory) CheckInvariants(maxQueued int) error {
	pending := 0
	for i, c := range m.ch {
		if c.committed < 0 || c.committed > m.cfg.Banks {
			return fault.Invariantf("dram", "%s: channel %d has %d committed requests (banks=%d)",
				m.Name, i, c.committed, m.cfg.Banks)
		}
		if err := m.checkQueue(i, &c.readQ, false); err != nil {
			return err
		}
		if err := m.checkQueue(i, &c.writeQ, true); err != nil {
			return err
		}
		if err := m.checkStallMemo(i, c); err != nil {
			return err
		}
		pending += c.readQ.Len() + c.writeQ.Len() + c.committed
	}
	if maxQueued > 0 && pending > maxQueued {
		return fault.Invariantf("dram", "%s: %d requests in flight exceeds the occupancy bound %d",
			m.Name, pending, maxQueued)
	}
	return nil
}

// checkQueue verifies that every request in one of channel ch's queues
// belongs there.
func (m *Memory) checkQueue(ch int, q *reqQ, isWrite bool) error {
	for i := 0; i < q.Len(); i++ {
		r := q.At(i)
		if r.m != m || r.Channel != ch || r.Write != isWrite || r.Bank < 0 || r.Bank >= m.cfg.Banks {
			return fault.Invariantf("dram", "%s: channel %d write=%v queue holds request for channel %d bank %d write=%v at position %d",
				m.Name, ch, isWrite, r.Channel, r.Bank, r.Write, i)
		}
	}
	return nil
}

// checkStallMemo revalidates a live horizon-stall memo: queue contents,
// bank state and the bus cannot have changed since it was taken (those
// paths clear it), so a reference pick at the memoized cycle must
// reproduce the memoized best start. The write-drain hysteresis is applied
// idempotently to recover which queue the stalled pick drew from.
func (m *Memory) checkStallMemo(ch int, c *channel) error {
	if !c.stallValid {
		return nil
	}
	q := c.source(m.drainMode(c))
	if q == nil {
		return fault.Invariantf("dram", "%s: channel %d holds a stall memo with empty queues",
			m.Name, ch)
	}
	if _, start, _ := m.refPick(c.stallNow, c, q); start != c.stallStart {
		return fault.Invariantf("dram", "%s: channel %d stall memo start %d != reference %d at cycle %d",
			m.Name, ch, c.stallStart, start, c.stallNow)
	}
	return nil
}
