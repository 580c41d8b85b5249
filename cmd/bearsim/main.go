// Command bearsim runs DRAM-cache simulations and prints their statistics.
//
// -workload and -design accept comma-separated lists; bearsim simulates the
// full cross product, fanning out across -parallel workers (default
// GOMAXPROCS) and printing results in a deterministic order regardless of
// which finishes first. A unit that fails (including by panic) does not
// stop the sweep: the remaining units run, the failures are summarised on
// stderr, and the exit code is non-zero. -check enables the engine
// invariant watchdog (identical results, unsound runs fail loudly).
//
// Usage:
//
//	bearsim -workload mcf -design BEAR -scale 128 -meas 2000000
//	bearsim -workload MIX3 -design Alloy
//	bearsim -workload mcf,lbm,libq -design Alloy,BEAR -parallel 8
//
// Each design × workload is one exp.UnitSpec run by exp.Runner, the sweep
// engine bearbench and bearserve share. -resume DIR attaches an exp.Store
// (checksummed, atomically written); completed units are restored instead
// of re-simulated on the next run. SIGINT/SIGTERM interrupt a sweep
// cleanly: in-flight units finish and (with -resume) persist, queued units
// never start, completed results print, and the exit code is 3 —
// "interrupted but checkpointed" — so re-running the same command resumes
// where the sweep stopped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"bear"
	"bear/internal/exp"
)

// exitInterrupted distinguishes an operator interrupt with checkpointed
// progress from a failed sweep (1) or a usage error (2).
const exitInterrupted = 3

func main() {
	var (
		workload = flag.String("workload", "mcf", "benchmark names (rate mode) or MIXn, comma-separated")
		design   = flag.String("design", "Alloy", "L4 designs, comma-separated: NoL4|Alloy|BEAR|BWOpt|LH|MC|Incl-Alloy|TIS|SC|Banshee|TicToc")
		scale    = flag.Int("scale", 64, "capacity divisor vs the paper's 1 GB machine")
		warm     = flag.Uint64("warm", 1_000_000, "warm-up instructions per core")
		meas     = flag.Uint64("meas", 2_000_000, "measured instructions per core")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		channels = flag.Int("l4channels", 0, "override L4 channel count (bandwidth study)")
		banks    = flag.Int("l4banks", 0, "override L4 banks per channel")
		capMB    = flag.Int64("capacity", 0, "override full-scale capacity in MB")
		traces   = flag.String("trace", "", "glob of per-core trace files (see beartrace); replaces -workload")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations across the workload x design sweep")
		check    = flag.Bool("check", false, "run engine invariant checks each epoch and verify quiescence after the run")
		resume   = flag.String("resume", "", "directory of an on-disk result store; completed units are restored instead of re-simulated")
		asJSON   = flag.Bool("json", false, "emit the result as JSON (an array when sweeping)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // only reachable allocations: the structural floor
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(err)
			}
		}()
	}

	p := exp.Params{Scale: *scale, Warm: *warm, Meas: *meas, Seed: *seed}
	p.Watchdog.Check = *check
	runner := exp.NewRunner(p)
	runner.Parallel = *parallel
	unit := func(design, workload string) exp.UnitSpec {
		return exp.UnitSpec{Design: design, Workload: workload,
			L4Channels: *channels, L4Banks: *banks, CapacityMB: *capMB}
	}

	// Interrupt handling: the first SIGINT/SIGTERM drains the sweep —
	// units already running finish (and persist to -resume), units still
	// queued never start — and the run exits with code 3.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bearsim: interrupted — finishing in-flight units, checkpointing completed ones")
		runner.Interrupt()
	}()

	// The sweep: every workload under every design. Results are collected
	// in sweep order, so printing never depends on completion order.
	var futures []exp.Future
	if *traces != "" {
		// A trace replay is one unit and is never stored: the files'
		// contents are not part of a store key.
		paths, err := filepath.Glob(*traces)
		if err != nil {
			fail(err)
		}
		f, err := runner.FilesAsync(unit(*design, *traces), paths)
		if err != nil {
			fail(err)
		}
		futures = append(futures, f)
	} else {
		var units []exp.UnitSpec
		for _, d := range strings.Split(*design, ",") {
			for _, w := range strings.Split(*workload, ",") {
				if w = strings.TrimSpace(w); w == "" {
					continue
				}
				u := unit(d, w)
				if err := u.Validate(); err != nil {
					fail(err)
				}
				units = append(units, u)
			}
		}
		if len(units) == 0 {
			fail(fmt.Errorf("no workloads given"))
		}
		if *resume != "" {
			store, err := exp.OpenStore(*resume, p.Fingerprint(exp.BuildFingerprint()))
			if err != nil {
				fail(err)
			}
			runner.Store = store
		}
		for _, u := range units {
			f, err := runner.UnitAsync(u)
			if err != nil {
				fail(err)
			}
			futures = append(futures, f)
		}
	}

	// Print the units that succeeded (in sweep order), then summarise the
	// failures. The exit code reports sweep health: 0 only when every unit
	// completed, 3 when an interrupt left the sweep checkpointed.
	var completed []*bear.Result
	for _, f := range futures {
		if run, err := f.Wait(); err == nil {
			completed = append(completed, bear.ResultOf(run))
		}
	}
	emit(completed, *asJSON)
	if n := runner.Restored(); n > 0 {
		fmt.Fprintf(os.Stderr, "bearsim: %d result(s) restored from %s\n", n, *resume)
	}
	runner.WriteFailureTable(os.Stderr)
	if runner.Interrupted() {
		where := *resume
		if where == "" {
			where = "nowhere (-resume not set; completed units were not persisted)"
		}
		fmt.Fprintf(os.Stderr, "bearsim: interrupted; completed units checkpointed to %s — re-run the same command to resume\n", where)
		os.Exit(exitInterrupted)
	}
	if len(runner.Failures()) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	pprof.StopCPUProfile() // flush any in-progress profile; os.Exit skips defers
	fmt.Fprintf(os.Stderr, "bearsim: %v\n", err)
	if strings.Contains(err.Error(), "unknown design") {
		os.Exit(2)
	}
	os.Exit(1)
}

func emit(results []*bear.Result, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var err error
		if len(results) == 1 {
			err = enc.Encode(results[0])
		} else {
			err = enc.Encode(results)
		}
		if err != nil {
			fail(err)
		}
		return
	}
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		print(r)
	}
}

func print(r *bear.Result) {
	fmt.Printf("workload       %s\n", r.Workload)
	fmt.Printf("design         %s\n", r.Design)
	fmt.Printf("cycles         %d\n", r.Cycles)
	fmt.Printf("instructions   %d\n", r.Instructions)
	fmt.Printf("IPC            %.3f\n", r.IPC)
	fmt.Printf("L3 MPKI        %.2f (miss rate %.1f%%)\n", r.L3MPKI, 100*r.L3MissRate)
	fmt.Printf("L3 writebacks  %d\n", r.L3Writebacks)
	fmt.Printf("L4 hit rate    %.1f%%\n", 100*r.L4HitRate)
	fmt.Printf("L4 hit lat     %.0f cycles\n", r.L4HitLatency)
	fmt.Printf("L4 miss lat    %.0f cycles\n", r.L4MissLatency)
	fmt.Printf("L4 avg lat     %.0f cycles\n", r.L4AvgLatency)
	fmt.Printf("bloat factor   %.2fx\n", r.BloatFactor)
	b := r.Breakdown
	fmt.Printf("  hit=%.2f missProbe=%.2f missFill=%.2f wbProbe=%.2f wbUpdate=%.2f wbFill=%.2f victim=%.2f repl=%.2f\n",
		b.Hit, b.MissProbe, b.MissFill, b.WBProbe, b.WBUpdate, b.WBFill, b.VictimRead, b.ReplUpdate)
	if r.Bypasses+r.DCPProbesSaved+r.NTCProbesSaved > 0 {
		fmt.Printf("BEAR           bypasses=%d dcpSaved=%d ntcSaved=%d ntcSquash=%d\n",
			r.Bypasses, r.DCPProbesSaved, r.NTCProbesSaved, r.NTCParallelSq)
	}
	if r.PredHits+r.PredMisses > 0 {
		fmt.Printf("MAP-I          accuracy=%.1f%% (%d/%d)\n",
			100*float64(r.PredHits)/float64(r.PredHits+r.PredMisses),
			r.PredHits, r.PredHits+r.PredMisses)
	}
	fmt.Printf("mem traffic    read=%.1f MB write=%.1f MB\n",
		float64(r.MemReadBytes)/(1<<20), float64(r.MemWriteBytes)/(1<<20))
}
