package dram

import (
	"testing"

	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/rng"
)

// FuzzScheduler holds the pruned scheduler to the unpruned reference scan
// (reference.go) over randomized geometries and request streams, all drawn
// from one seed. SelfCheck re-derives every pick through refPick and panics
// on any divergence in queue position, start cycle or row-hit
// classification, so a passing input certifies bit-identical scheduling;
// the periodic CheckInvariants calls additionally check queue membership,
// the commit bound and the horizon-stall memo mid-stream, not just at
// quiescence.
//
// The stream generator is aimed at the scheduler's hard cases: refresh
// windows the candidate starts straddle, write floods that trip the drain
// watermarks and push queues past the 16-entry scan window, tight row
// spaces that mix row hits and conflicts per bank, bursts of varying
// length (refresh alignment depends on it), up to 128 banks per channel,
// and non-monotone enqueue times — requests issued at now + a random path
// latency, the way the cache hierarchy issues them.
//
// Plain `go test` runs the seed corpus (diffSeeds plus anything committed
// under testdata/fuzz/FuzzScheduler); `go test -fuzz FuzzScheduler`
// explores further seeds.
func FuzzScheduler(f *testing.F) {
	for _, seed := range diffSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runDiffTrial)
}

// TestDifferentialFuzz replays the same 64 seeds as subtests #00 to #63,
// so each seed keeps a stable test name.
func TestDifferentialFuzz(t *testing.T) {
	for _, seed := range diffSeeds() {
		t.Run("", func(t *testing.T) { runDiffTrial(t, seed) })
	}
}

// diffSeeds returns the 64 corpus seeds.
func diffSeeds() []uint64 {
	seeds := make([]uint64, 64)
	r := rng.New(0xbea7d1ff)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return seeds
}

func runDiffTrial(t *testing.T, seed uint64) {
	r := rng.New(seed)
	cfg := config.DRAM{
		Channels: 1 + int(r.Uint64n(3)),
		// Up to 128 banks/channel, toward the Figure 15 sweep's regime.
		Banks:         1 << r.Uint64n(8),
		BytesPerCycle: 4 << r.Uint64n(3),
		RowBytes:      2048,
		TCAS:          5 + r.Uint64n(40),
		TRCD:          5 + r.Uint64n(40),
		TRP:           5 + r.Uint64n(40),
		TRAS:          20 + r.Uint64n(130),
	}
	if r.Uint64n(2) == 0 {
		cfg.TFAW = 50 + r.Uint64n(200)
	}
	if r.Uint64n(2) == 0 {
		cfg.TRFC = 50 + r.Uint64n(250)
		cfg.TREFI = cfg.TRFC + 300 + r.Uint64n(1700)
	}
	cfg.WriteQLo = 2 + int(r.Uint64n(8))
	cfg.WriteQHi = cfg.WriteQLo + 2 + int(r.Uint64n(24))

	var q event.Queue
	m := New("fuzz", cfg, &q)
	m.SelfCheck = true

	rows := 1 + r.Uint64n(6) // tiny row space: hits and conflicts interleave
	steps := 100 + int(r.Uint64n(300))
	reads, completions := 0, 0
	var now uint64
	for i := 0; i < steps; i++ {
		if cfg.TREFI > 0 && r.Uint64n(8) == 0 {
			// Jump near a refresh boundary so candidate bursts straddle it.
			now += cfg.TREFI/2 + r.Uint64n(cfg.TREFI)
		} else {
			now += r.Uint64n(40)
		}
		q.RunUntil(now)

		n := 1 + r.Uint64n(4)
		if r.Uint64n(10) == 0 {
			// Flood: trips the drain watermarks and pushes a queue past the
			// scan window.
			n += scanLimit + r.Uint64n(scanLimit)
		}
		for j := uint64(0); j < n; j++ {
			issue := now + r.Uint64n(60) // hierarchy-style future issue cycle
			ch := int(r.Uint64n(uint64(cfg.Channels)))
			bk := int(r.Uint64n(uint64(cfg.Banks)))
			row := r.Uint64n(rows)
			bytes := int(16 * (1 + r.Uint64n(8)))
			if r.Uint64n(3) == 0 {
				m.Write(issue, ch, bk, row, bytes)
			} else {
				reads++
				m.Read(issue, ch, bk, row, bytes, func(uint64) { completions++ })
			}
		}
		checkQueuePeaks(t, seed, m)
		if i%16 == 0 {
			if err := m.CheckInvariants(0); err != nil {
				t.Fatalf("seed %#x step %d: %v", seed, i, err)
			}
		}
	}
	q.Run(nil)
	if err := m.CheckInvariants(0); err != nil {
		t.Fatalf("seed %#x drained: %v", seed, err)
	}
	if completions != reads {
		t.Fatalf("seed %#x: %d of %d reads completed", seed, completions, reads)
	}
	if p := m.Pending(); p != 0 {
		t.Fatalf("seed %#x: %d requests pending after drain", seed, p)
	}
	// Every request sits in its queue at least from its push to its kick.
	if (m.Stats.Writes > 0 && m.Stats.MaxWriteQLen < 1) || (m.Stats.Reads > 0 && m.Stats.MaxReadQLen < 1) {
		t.Fatalf("seed %#x: queue peaks read %d write %d for %d reads %d writes",
			seed, m.Stats.MaxReadQLen, m.Stats.MaxWriteQLen, m.Stats.Reads, m.Stats.Writes)
	}
}

// checkQueuePeaks holds the queue-depth peaks in Stats to what the queues
// show: a peak is at least every depth observed, and a channel in write
// drain reached the high watermark on the way in.
func checkQueuePeaks(t *testing.T, seed uint64, m *Memory) {
	t.Helper()
	for i, c := range m.ch {
		if c.readQ.Len() > m.Stats.MaxReadQLen || c.writeQ.Len() > m.Stats.MaxWriteQLen ||
			(c.draining && m.Stats.MaxWriteQLen < m.cfg.WriteQHi) {
			t.Fatalf("seed %#x: channel %d holds %d reads %d writes (draining %v) over peaks %d/%d",
				seed, i, c.readQ.Len(), c.writeQ.Len(), c.draining, m.Stats.MaxReadQLen, m.Stats.MaxWriteQLen)
		}
	}
}

// TestPickPrunesAreTight pins both prunes of pick at their boundaries, on
// hand-built channel states where a one-cycle slip in either bound changes
// the winner. Random streams rarely land exactly there. The geometry is
// testCfg's: tCAS = tRCD = 36, no tFAW, no refresh; every request is a
// 64-byte read enqueued at cycle 0.
func TestPickPrunesAreTight(t *testing.T) {
	const now = 1000
	type req struct {
		bank int
		row  uint64
	}
	for _, tc := range []struct {
		name    string
		busFree uint64
		openAt  [4]uint64 // per bank; 0 leaves the bank closed
		reqs    []req
		wantIdx int
		wantHit bool
	}{
		{
			// The hit starts at 1037+36 = 1073; the closed-bank miss at
			// now+tRCD+tCAS = 1072, exactly its prune bound.
			name:    "miss one cycle ahead of a hit wins",
			openAt:  [4]uint64{1037},
			reqs:    []req{{0, 0}, {1, 5}},
			wantIdx: 1, wantHit: false,
		},
		{
			name:    "miss tied with a hit loses",
			openAt:  [4]uint64{1036},
			reqs:    []req{{0, 0}, {1, 5}},
			wantIdx: 0, wantHit: true,
		},
		{
			// The first hit starts one cycle after the bus frees, so the
			// scan must go on to the second, which starts when it frees.
			name:    "hit one cycle past bus-free does not end the scan",
			busFree: 1100,
			openAt:  [4]uint64{1065, 0, 1},
			reqs:    []req{{0, 0}, {2, 0}},
			wantIdx: 1, wantHit: true,
		},
	} {
		var q event.Queue
		m := New("t", testCfg(), &q)
		c := m.ch[0]
		c.busFreeAt = tc.busFree
		for b, at := range tc.openAt {
			if at > 0 {
				c.banks[b] = bank{hasOpen: true, openAt: at}
			}
		}
		for _, r := range tc.reqs {
			c.readQ.Push(&Request{Bank: r.bank, Row: r.row, Bytes: 64, burst: 4})
		}
		idx, start, hit := m.pick(now, c, &c.readQ)
		ri, rs, rh := m.refPick(now, c, &c.readQ)
		if idx != ri || start != rs || hit != rh {
			t.Errorf("%s: pick (pos %d start %d hit %v) != reference (pos %d start %d hit %v)",
				tc.name, idx, start, hit, ri, rs, rh)
		}
		if idx != tc.wantIdx || hit != tc.wantHit {
			t.Errorf("%s: picked pos %d hit %v, want pos %d hit %v", tc.name, idx, hit, tc.wantIdx, tc.wantHit)
		}
	}
}
