// Command bearbench regenerates the paper's tables and figures from live
// simulations.
//
// Usage:
//
//	bearbench -list
//	bearbench -run fig12
//	bearbench -run all -quick
//	bearbench -run fig13 -scale 64 -meas 1200000 -mixes 8
//	bearbench -run all -parallel 32 -v
//
// Simulations fan out across -parallel workers (default GOMAXPROCS).
// Every simulation is deterministic and results are collected in a fixed
// order, so the output is byte-identical at any parallelism level.
//
// -resume DIR keeps an on-disk result store: completed simulations are
// written there (atomically, checksummed) and restored on the next run,
// so an interrupted sweep resumes where it crashed. -check enables the
// engine invariant watchdog. Failed simulations do not stop a sweep; the
// run summarises them on stderr and exits non-zero.
//
// SIGINT/SIGTERM interrupt a sweep cleanly: in-flight simulations finish
// and (with -resume) persist to the store, nothing new starts, and the
// process exits with code 3 — "interrupted but checkpointed" — so a
// wrapper can distinguish an operator stop from a failed sweep and simply
// re-run the same command to resume.
//
// -worker turns the process into a bearserve pool worker: it reads unit
// specs as line-delimited JSON on stdin and writes result-store envelopes
// on stdout (see internal/serve/worker). -faultplan arms the deterministic
// fault-injection registry for chaos testing (see internal/faultpoint).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bear/internal/exp"
	"bear/internal/faultpoint"
	"bear/internal/serve/worker"
)

// Exit codes: 0 success, 1 unit/experiment failures, 2 usage errors,
// 3 interrupted by SIGINT/SIGTERM with completed work checkpointed.
const exitInterrupted = 3

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		run       = flag.String("run", "", "experiment id to run, or 'all'")
		quick     = flag.Bool("quick", false, "use small quick-check parameters")
		scale     = flag.Int("scale", 0, "override capacity divisor")
		warm      = flag.Uint64("warm", 0, "override warm-up instructions per core")
		meas      = flag.Uint64("meas", 0, "override measured instructions per core")
		mixes     = flag.Int("mixes", 0, "override number of MIX workloads")
		seed      = flag.Uint64("seed", 0, "override simulation seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial; output is identical either way)")
		verbose   = flag.Bool("v", false, "log every simulation as it completes")
		resume    = flag.String("resume", "", "directory of an on-disk result store; completed units are restored instead of re-simulated")
		check     = flag.Bool("check", false, "run engine invariant checks each epoch and verify quiescence after every simulation")
		asWorker  = flag.Bool("worker", false, "run as a bearserve pool worker: unit specs on stdin, result envelopes on stdout")
		faultplan = flag.String("faultplan", "", "arm the deterministic fault-injection plan (chaos testing)")
		unitkey   = flag.String("unitkey", "", "print the result-store key for a design/workload unit and exit (for fault-plan scripting)")
	)
	flag.Parse()

	if *faultplan != "" {
		plan, err := faultpoint.ParsePlan(*faultplan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bearbench:", err)
			os.Exit(2)
		}
		faultpoint.Arm(plan)
	}

	if *unitkey != "" {
		// Store keys are the coordinates of keyed fault-plan entries;
		// scripts must never hand-write them (the rendering tracks the
		// internal spec struct), so print the canonical derivation.
		design, workload, ok := strings.Cut(*unitkey, "/")
		if !ok {
			fmt.Fprintln(os.Stderr, "bearbench: -unitkey wants design/workload (e.g. Alloy/soplex)")
			os.Exit(2)
		}
		key, err := exp.UnitSpec{Design: design, Workload: workload}.Key()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bearbench:", err)
			os.Exit(2)
		}
		fmt.Println(key)
		return
	}

	if !*asWorker && (*list || *run == "") {
		fmt.Println("Experiments (one per paper table/figure):")
		for _, e := range exp.All() {
			fmt.Printf("  %-6s %-9s %s\n", e.ID, e.Artifact, e.Title)
			fmt.Printf("         %s\n", e.About)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: bearbench -run <id>   (or -run all)")
		}
		return
	}

	p := exp.Default()
	if *quick {
		p = exp.Quick()
	}
	if *scale > 0 {
		p.Scale = *scale
	}
	if *warm > 0 {
		p.Warm = *warm
	}
	if *meas > 0 {
		p.Meas = *meas
	}
	if *mixes > 0 {
		p.Mixes = *mixes
	}
	if *seed > 0 {
		p.Seed = *seed
	}
	p.Watchdog.Check = *check

	runner := exp.NewRunner(p)
	if *parallel > 0 {
		runner.Parallel = *parallel
	}
	if *verbose {
		runner.Log = os.Stderr
	}

	if *asWorker {
		// Pool-worker mode: serve bearserve's unit protocol until stdin
		// closes. Stdout belongs to the protocol, so progress logging (-v)
		// stays on stderr; units run serially — the server owns parallelism.
		runner.Parallel = 1
		err := worker.WorkerLoop(runner, p.Fingerprint(exp.BuildFingerprint()), os.Stdin, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bearbench: worker:", err)
			os.Exit(1)
		}
		return
	}

	// Interrupt handling: first SIGINT/SIGTERM puts the runner into drain
	// mode — in-flight simulations finish (and persist to -resume), queued
	// ones fail fast with ErrInterrupted — and the run exits with code 3.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bearbench: interrupted — finishing in-flight simulations, checkpointing completed units")
		runner.Interrupt()
	}()
	if *resume != "" {
		store, err := exp.OpenStore(*resume, p.Fingerprint(exp.BuildFingerprint()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bearbench:", err)
			os.Exit(1)
		}
		runner.Store = store
	}

	var todo []exp.Experiment
	if *run == "all" {
		todo = exp.All()
	} else {
		e, err := exp.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []exp.Experiment{e}
	}

	// Experiments run to completion even when one fails: a failed
	// experiment is recorded, the rest still regenerate their artifacts,
	// and the run exits non-zero with a failure summary.
	var failedExps []string
	for _, e := range todo {
		start := time.Now()
		fmt.Printf("\n### %s — %s\n### %s\n", e.Artifact, e.Title, e.About)
		if err := e.Run(p, os.Stdout, runner); err != nil {
			fmt.Fprintf(os.Stderr, "bearbench: %s: %v\n", e.ID, err)
			failedExps = append(failedExps, e.ID)
			continue
		}
		fmt.Printf("\n[%s done in %v, %d simulations so far]\n", e.ID, time.Since(start).Round(time.Millisecond), runner.Count())
	}
	if n := runner.Restored(); n > 0 {
		fmt.Fprintf(os.Stderr, "bearbench: %d result(s) restored from %s\n", n, *resume)
	}
	runner.WriteFailureTable(os.Stderr)
	if runner.Interrupted() {
		where := *resume
		if where == "" {
			where = "nowhere (-resume not set; completed units were not persisted)"
		}
		fmt.Fprintf(os.Stderr, "bearbench: interrupted; completed units checkpointed to %s — re-run the same command to resume\n", where)
		os.Exit(exitInterrupted)
	}
	if len(failedExps) > 0 {
		fmt.Fprintf(os.Stderr, "bearbench: %d experiment(s) failed: %s\n", len(failedExps), strings.Join(failedExps, ", "))
		os.Exit(1)
	}
}
