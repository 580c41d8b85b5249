package dramcache

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"bear/internal/config"
	"bear/internal/rng"
	"bear/internal/trace"
)

// roundRobin calls install with every core's warm lines, expanded from its
// runs, position by position and cores in index order, one line per call:
// the plainest statement of the order Cache.Prewarm must reproduce.
func roundRobin(cores [][]trace.Run, install func(line uint64)) {
	run := make([]int, len(cores))    // the run holding each core's next line
	off := make([]uint64, len(cores)) // that line's offset in its run
	for {
		any := false
		for i, runs := range cores {
			for run[i] < len(runs) && off[i] == runs[run[i]].Len {
				run[i], off[i] = run[i]+1, 0
			}
			if run[i] < len(runs) {
				install(runs[run[i]].First + off[i])
				off[i]++
				any = true
			}
		}
		if !any {
			return
		}
	}
}

// warmRuns is each core's footprint runs and the warm cap, as
// hier.Sim.prewarm hands them to Cache.Prewarm.
func warmRuns(cfg config.System, wl trace.Workload) (cores [][]trace.Run, fair uint64) {
	fair = uint64(cfg.CacheBytes) / config.TADBytes / uint64(len(wl.Sources))
	cores = make([][]trace.Run, len(wl.Sources))
	for i, src := range wl.Sources {
		cores[i] = src.(trace.Prewarmer).PrewarmRuns(math.MaxUint64)
	}
	return cores, fair
}

// sameSlab reports whether two TAD stores hold byte-equal slabs over equal
// dictionaries, and if not, the first differing slab byte (-1 when only
// the dictionaries differ).
func sameSlab(a, b *tadTags) (int, bool) {
	if !bytes.Equal(a.slots, b.slots) {
		return firstDiff(a.slots, b.slots), false
	}
	return -1, slices.Equal(a.tags, b.tags)
}

// TestPrewarmRunsMatchLineInstall pins the TAD store's run prewarm to the
// per-line round-robin Install of the warm lines after the same code
// reservation for the footprint's tags: the slot slabs and dictionaries
// must be equal. The workloads cover Rate mcf, xalanc and lbm and the MIX1
// and MIX5 mixes, whose per-core warm sets differ in length, from paper
// scale down to 1/4096. The warm prefix of each core's footprint must be
// the runs its Prewarmer caps at the same limit.
func TestPrewarmRunsMatchLineInstall(t *testing.T) {
	workloads := []struct {
		name string
		make func(cores, scale int) (trace.Workload, error)
	}{
		{"mcf", func(cores, scale int) (trace.Workload, error) { return trace.Rate("mcf", cores, scale, 1) }},
		{"xalanc", func(cores, scale int) (trace.Workload, error) { return trace.Rate("xalanc", cores, scale, 1) }},
		{"lbm", func(cores, scale int) (trace.Workload, error) { return trace.Rate("lbm", cores, scale, 1) }},
		{"mix1", func(cores, scale int) (trace.Workload, error) { return trace.Mix(1, cores, scale, 1) }},
		{"mix5", func(cores, scale int) (trace.Workload, error) { return trace.Mix(5, cores, scale, 1) }},
	}
	fx := newFixture()
	for _, scale := range []int{1, 64, 256, 4096} {
		cfg := config.Default(scale)
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/scale=%d", w.name, scale), func(t *testing.T) {
				wl, err := w.make(cfg.Core.Count, scale)
				if err != nil {
					t.Fatal(err)
				}
				cores, fair := warmRuns(cfg, wl)
				for i, runs := range warmPrefix(cores, fair) {
					if want := wl.Sources[i].(trace.Prewarmer).PrewarmRuns(fair); !slices.Equal(runs, want) {
						t.Fatalf("core %d: warm prefix %v, want the capped runs %v", i, runs, want)
					}
				}
				ref := NewAlloy("ref", cfg.AlloySets(), fx.l4, fx.mem, Hooks{}, AlloyOpts{})
				ref.tags.(*tadTags).reserve(cores)
				roundRobin(warmPrefix(cores, fair), func(line uint64) { ref.Install(line) })
				got := NewAlloy("runs", cfg.AlloySets(), fx.l4, fx.mem, Hooks{}, AlloyOpts{})
				got.Prewarm(cores, fair)
				if at, ok := sameSlab(got.tags.(*tadTags), ref.tags.(*tadTags)); !ok {
					t.Fatalf("run prewarm slab differs from the per-line install at byte %d", at)
				}
			})
		}
	}
}

// TestFillSlotsMatchesPutSlot pins the run prewarm's bulk fill to one
// putSlot per slot at every slot width a paper-scale store can reach, every
// bit shift of the first slot within its byte, and every length from 0 to
// three periods and one slot, over a slab of random bytes: the slabs must
// be byte-equal, so the fill writes exactly its own slots' bits. The values
// are the edges of the code space, clean and dirty: code 1 and the largest
// code, with and without the top bit.
func TestFillSlotsMatchesPutSlot(t *testing.T) {
	r := rng.New(1)
	maxWidth := uint64(bits.Len64(4 * config.Default(1).AlloySets()))
	for width := uint64(2); width <= maxWidth; width++ {
		// The period: the fewest slots that fill a whole number of bytes.
		period := uint64(1)
		for period*width%8 != 0 {
			period++
		}
		dirty := uint64(1) << (width - 1)
		values := []uint64{1, dirty - 1, dirty | 1, dirty | (dirty - 1)}
		const sets = 64
		for start := period; start < 2*period; start++ {
			for n := range 3*period + 2 {
				v := values[n%uint64(len(values))]
				want := make([]byte, (sets*width+7)/8+8)
				for i := range want {
					want[i] = byte(r.Uint64())
				}
				got := bytes.Clone(want)
				for set := start; set < start+n; set++ {
					putSlot(want, width, set, v)
				}
				fillSlots(got, width, start, n, v)
				if !bytes.Equal(got, want) {
					t.Fatalf("width %d, %d slots from set %d: the fill differs from putSlot at byte %d",
						width, n, start, firstDiff(got, want))
				}
			}
		}
	}
}

// sameSets reports whether every set of a and b decodes to the same line
// and state, and if not, the first set that differs.
func sameSets(a, b *tadTags) (uint64, bool) {
	for set := range a.sets.n {
		la, va, da := a.line(set)
		lb, vb, db := b.line(set)
		if la != lb || va != vb || da != db {
			return set, false
		}
	}
	return 0, true
}

// firstDiff is the first index at which a and b, of equal length, differ.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// recordTags is a TagStore that records the lines Install receives, in
// order; it implements nothing else.
type recordTags struct {
	TagStore
	lines []uint64
}

func (r *recordTags) Install(lines ...uint64) { r.lines = append(r.lines, lines...) }

// TestInstallInterleavedMatchesRoundRobin pins the line path's batching:
// the lines reach Install in the round-robin order whatever the batch
// seams, with cores exhausted before the longest, empty cores, and warm
// lengths on both sides of a prewarmChunk multiple.
func TestInstallInterleavedMatchesRoundRobin(t *testing.T) {
	cores := [][]trace.Run{
		{{First: 100, Len: 3}, {First: 7, Len: prewarmChunk - 1}},
		nil,
		{{First: 1 << 40, Len: 2*prewarmChunk + 1}},
		{{First: 5, Len: prewarmChunk}, {First: 0, Len: 1}},
		{{First: 9, Len: 0}, {First: 9, Len: 2}},
	}
	var want []uint64
	roundRobin(cores, func(line uint64) { want = append(want, line) })
	got := &recordTags{}
	installInterleaved(got, cores)
	if !slices.Equal(got.lines, want) {
		t.Fatalf("installInterleaved installed %d lines out of round-robin order (want %d lines)",
			len(got.lines), len(want))
	}
}

// FuzzPrewarmRuns drives both prewarm paths with random set counts, random
// per-core run lists and a random warm cap: runs of several cores
// overlapping on the same sets, runs longer than the set count that wrap
// onto their own core, and cores with no runs. Starting from the same
// partly filled slab, the TAD store's slab and dictionary must equal those
// of the per-line round-robin Install after the same code reservation, and
// every set must decode as after the plain per-line Install, which
// reserves nothing. The line path must hand Install the round-robin
// sequence.
func FuzzPrewarmRuns(f *testing.F) {
	for _, sets := range []uint64{1, 2, 3, 7, 28, 1000} {
		for seed := range uint64(3) {
			f.Add(sets, seed, uint8(4), uint8(3))
		}
	}
	f.Add(uint64(5), uint64(9), uint8(8), uint8(6))
	f.Fuzz(func(t *testing.T, sets, seed uint64, ncores, nruns uint8) {
		sets = sets%(1<<10) + 1
		r := rng.New(seed)
		cores := make([][]trace.Run, ncores%8+1)
		for i := range cores {
			if r.Bool(0.2) {
				continue // a core with no warm set
			}
			for range r.Intn(int(nruns%8) + 1) {
				// Starts near the origin overlap across cores; a high
				// base gives the lines large tags.
				first := r.Uint64n(4 * sets)
				if r.Bool(0.3) {
					first += r.Uint64n(maxLine / 2)
				}
				cores[i] = append(cores[i], trace.Run{First: first, Len: r.Uint64n(3*sets + 2)})
			}
		}
		limit := uint64(math.MaxUint64)
		if r.Bool(0.5) {
			limit = r.Uint64n(4 * sets)
		}
		fx := newFixture()
		plain := NewAlloy("plain", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{})
		ref := NewAlloy("ref", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{})
		got := NewAlloy("runs", sets, fx.l4, fx.mem, Hooks{}, AlloyOpts{})
		for range r.Intn(int(sets)) {
			line := r.Uint64n(maxLine)
			plain.Install(line)
			ref.Install(line)
			got.Install(line)
		}
		warm := warmPrefix(cores, limit)
		for i, runs := range warm {
			var want []uint64
			roundRobin(cores[i:i+1], func(line uint64) { want = append(want, line) })
			var got []uint64
			roundRobin([][]trace.Run{runs}, func(line uint64) { got = append(got, line) })
			if !slices.Equal(got, want[:min(limit, uint64(len(want)))]) {
				t.Fatalf("runs %v, cap %d: warm prefix %v is not the first lines", cores[i], limit, runs)
			}
		}
		roundRobin(warm, func(line uint64) { plain.Install(line) })
		ref.tags.(*tadTags).reserve(cores)
		roundRobin(warm, func(line uint64) { ref.Install(line) })
		got.Prewarm(cores, limit)
		if at, ok := sameSlab(got.tags.(*tadTags), ref.tags.(*tadTags)); !ok {
			t.Fatalf("%d sets, runs %v, cap %d: run prewarm slab differs from the per-line install at byte %d",
				sets, cores, limit, at)
		}
		if set, ok := sameSets(got.tags.(*tadTags), plain.tags.(*tadTags)); !ok {
			t.Fatalf("%d sets, runs %v, cap %d: set %d decodes differently after the run prewarm and the plain per-line install",
				sets, cores, limit, set)
		}

		var want []uint64
		roundRobin(cores, func(line uint64) { want = append(want, line) })
		rec := &recordTags{}
		installInterleaved(rec, cores)
		if !slices.Equal(rec.lines, want) {
			t.Fatalf("runs %v: installInterleaved order differs from round-robin", cores)
		}
	})
}
