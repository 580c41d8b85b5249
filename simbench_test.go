package bear

// End-to-end hot-path benchmarks: BenchmarkSimAlloy and BenchmarkSimBEAR run
// one complete simulation per iteration and report ns/instr and allocs/instr
// for the measured (steady-state) phase, and the simulator's work over that
// phase: events executed per instruction, DRAM requests per instruction,
// and the DRAM scheduler's picks per request and candidates priced per
// pick, all summed over the L4 and main-memory DRAM. The work counters are
// exact, so unlike the timings they do not move with the box. Construction
// and warm-up run untimed — RunWarm grows the event queue, DRAM request
// freelists and transaction pools to their working sizes first — so
// allocs/instr is the steady-state allocation rate. It is small but not
// zero: the residual is freelist and ring growth whenever the in-flight
// count reaches a new peak, and TestSteadyStateAllocs (internal/hier)
// bounds it for every design.
//
// scripts/bench.sh runs these and snapshots the numbers into BENCH_<n>.json
// so the performance trajectory is tracked across PRs.

import (
	"runtime"
	"testing"

	"bear/internal/config"
	"bear/internal/dram"
	"bear/internal/hier"
	"bear/internal/trace"
)

// dramWork sums the scheduler work counters of a simulation's DRAMs.
func dramWork(sim *hier.Sim) dram.Work {
	w := sim.Bundle.MemDRAM.Work
	if l4 := sim.Bundle.L4DRAM; l4 != nil {
		w.Requests += l4.Work.Requests
		w.Picks += l4.Work.Picks
		w.Priced += l4.Work.Priced
	}
	return w
}

// benchSim reports steady-state ns/instr, allocs/instr, events per
// instruction, DRAM requests per instruction, DRAM picks per request and
// DRAM candidates priced per pick for one design.
func benchSim(b *testing.B, design config.Design) {
	b.Helper()
	const (
		scale = 256
		bench = "mcf"
		warm  = uint64(150_000)
		meas  = uint64(500_000)
	)
	sys := config.Default(scale).WithDesign(design)
	var instr, mallocs, events, requests, picks, priced uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		wl, err := trace.Rate(bench, sys.Core.Count, scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := hier.NewSim(sys, wl, warm, meas)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunWarm()
		w0, e0 := dramWork(sim), sim.Q.Executed()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, err := sim.Run()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		events += sim.Q.Executed() - e0
		w := dramWork(sim)
		requests += w.Requests - w0.Requests
		picks += w.Picks - w0.Picks
		priced += w.Priced - w0.Priced
		mallocs += after.Mallocs - before.Mallocs
		instr += res.Instructions
	}
	if instr == 0 {
		b.Fatal("no instructions measured")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
	b.ReportMetric(float64(mallocs)/float64(instr), "allocs/instr")
	b.ReportMetric(float64(events)/float64(instr), "events/instr")
	if requests == 0 || picks == 0 {
		b.Fatal("no DRAM requests measured")
	}
	b.ReportMetric(float64(requests)/float64(instr), "req/instr")
	b.ReportMetric(float64(picks)/float64(requests), "picks/req")
	b.ReportMetric(float64(priced)/float64(picks), "priced/pick")
}

// BenchmarkSimAlloy measures the Alloy baseline (MAP-I predictor, no BEAR
// components): the common L4 hit/miss paths through dram, dramcache, hier
// and cpu.
func BenchmarkSimAlloy(b *testing.B) { benchSim(b, config.Alloy) }

// BenchmarkSimBEAR measures the full BEAR design (BAB + DCP + NTC), which
// additionally exercises the bypass, presence and tag-cache policy code on
// every access.
func BenchmarkSimBEAR(b *testing.B) { benchSim(b, config.BEAR) }

// The remaining compositions cover every other design the experiments run,
// so a regression in any design-specific path (sectored tags, inclusion
// back-invalidates, the no-L4 memory path, ...) shows up in the snapshot
// trajectory, not only in the two headline designs above.

// BenchmarkSimNoL4 measures the no-DRAM-cache floor: L3 misses go straight
// to main memory, so this isolates cpu + hier + dram with no L4 code at all.
func BenchmarkSimNoL4(b *testing.B) { benchSim(b, config.NoL4) }

// BenchmarkSimBWOpt measures the idealised bandwidth-optimized cache.
func BenchmarkSimBWOpt(b *testing.B) { benchSim(b, config.BWOpt) }

// BenchmarkSimLH measures the Loh-Hill tags-in-DRAM design.
func BenchmarkSimLH(b *testing.B) { benchSim(b, config.LohHill) }

// BenchmarkSimMC measures the Mostly-Clean write-policy design.
func BenchmarkSimMC(b *testing.B) { benchSim(b, config.MostlyClean) }

// BenchmarkSimInclAlloy measures Alloy with inclusion enforced, which adds
// back-invalidate traffic into the on-chip levels on every L4 eviction.
func BenchmarkSimInclAlloy(b *testing.B) { benchSim(b, config.InclAlloy) }

// BenchmarkSimTIS measures the tags-in-SRAM idealisation.
func BenchmarkSimTIS(b *testing.B) { benchSim(b, config.TIS) }

// BenchmarkSimSC measures the sectored cache design.
func BenchmarkSimSC(b *testing.B) { benchSim(b, config.Sector) }

// BenchmarkSimBanshee measures the page-grained Banshee design (blockTags
// with whole-page fills, FBR admission, tag-buffer writeback resolution).
func BenchmarkSimBanshee(b *testing.B) { benchSim(b, config.Banshee) }

// BenchmarkSimTicToc measures the page-grained TicToc design (demand-line
// fills into page frames, tag-cache-resolved tag checks).
func BenchmarkSimTicToc(b *testing.B) { benchSim(b, config.TicToc) }

// BenchmarkNewSimPaper times hier.NewSim at paper scale (1 GB L4) for every
// design: tag-array allocation plus the functional prewarm that installs
// each core's steady-state residency. It reports B/op, the construction
// footprint. scripts/bench.sh records these as its set-up rows; the name
// avoids the BenchmarkSim prefix, whose rows it reads as ns/instr rows.
func BenchmarkNewSimPaper(b *testing.B) {
	const scale = 1
	for d := config.NoL4; d <= config.TicToc; d++ {
		b.Run(d.String(), func(b *testing.B) {
			sys := config.Default(scale).WithDesign(d)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wl, err := trace.Rate("xalanc", sys.Core.Count, scale, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := hier.NewSim(sys, wl, 1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
