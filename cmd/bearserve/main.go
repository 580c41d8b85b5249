// Command bearserve is the sweep daemon: a long-running HTTP control
// plane that schedules simulation units onto a supervised pool of
// bearbench -worker subprocesses. A simulator crash, watchdog trip or
// OOM kills one unit's worker process; the server retries the unit with
// deterministic backoff and keeps serving stored results throughout.
//
// Usage:
//
//	bearserve -addr :8080 -store results/ -workers 4 -quick
//	curl -XPOST localhost:8080/sweep -d '{"units":[{"design":"Alloy","workload":"soplex"}]}'
//	curl localhost:8080/progress
//	curl localhost:8080/result?design=Alloy&workload=soplex
//
// Endpoints: POST /sweep, GET /progress, /result, /healthz, /readyz.
// SIGTERM (or SIGINT) drains: /readyz flips to 503, in-flight units
// finish and persist, queued units are checkpointed into the store's
// pending.json, and the process exits. On startup an existing
// pending.json is resubmitted automatically, so drain + restart resumes
// the sweep. Simulation parameters (-quick, -scale, -warm, -meas,
// -mixes, -seed) are forwarded to every worker; the store fingerprint
// covers them, so server and workers always agree on what a result
// means.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"bear/internal/exp"
	"bear/internal/faultpoint"
	"bear/internal/serve"
)

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		storeDir        = flag.String("store", "", "result store directory (required)")
		workers         = flag.Int("workers", 2, "worker subprocess pool size")
		workerBin       = flag.String("worker-bin", "", "worker binary (default: bearbench next to this executable, or on PATH)")
		quick           = flag.Bool("quick", false, "use small quick-check parameters")
		scale           = flag.Int("scale", 0, "override capacity divisor")
		warm            = flag.Uint64("warm", 0, "override warm-up instructions per core")
		meas            = flag.Uint64("meas", 0, "override measured instructions per core")
		mixes           = flag.Int("mixes", 0, "override number of MIX workloads")
		seed            = flag.Uint64("seed", 0, "override simulation seed")
		attempts        = flag.Int("max-attempts", 3, "tries per unit before it fails terminally")
		deadline        = flag.Duration("deadline", 0, "per-unit wall-clock deadline (default: derived from instruction budgets)")
		faultplan       = flag.String("faultplan", "", "arm the server-side fault-injection plan (chaos testing)")
		workerFaultplan = flag.String("worker-faultplan", "", "fault-injection plan forwarded to every worker (chaos testing)")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "bearserve: -store is required")
		os.Exit(2)
	}

	p := exp.Default()
	workerArgs := []string{"-worker"}
	if *quick {
		p = exp.Quick()
		workerArgs = append(workerArgs, "-quick")
	}
	if *scale > 0 {
		p.Scale = *scale
		workerArgs = append(workerArgs, "-scale", strconv.Itoa(*scale))
	}
	if *warm > 0 {
		p.Warm = *warm
		workerArgs = append(workerArgs, "-warm", strconv.FormatUint(*warm, 10))
	}
	if *meas > 0 {
		p.Meas = *meas
		workerArgs = append(workerArgs, "-meas", strconv.FormatUint(*meas, 10))
	}
	if *mixes > 0 {
		p.Mixes = *mixes
		workerArgs = append(workerArgs, "-mixes", strconv.Itoa(*mixes))
	}
	if *seed > 0 {
		p.Seed = *seed
		workerArgs = append(workerArgs, "-seed", strconv.FormatUint(*seed, 10))
	}

	if *faultplan != "" {
		plan, err := faultpoint.ParsePlan(*faultplan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bearserve:", err)
			os.Exit(2)
		}
		faultpoint.Arm(plan)
	}
	if *workerFaultplan != "" {
		// Validated here so a typo fails the daemon at startup, not every
		// worker handshake; workers arm it themselves via their own flag.
		if _, err := faultpoint.ParsePlan(*workerFaultplan); err != nil {
			fmt.Fprintln(os.Stderr, "bearserve: -worker-faultplan:", err)
			os.Exit(2)
		}
		workerArgs = append(workerArgs, "-faultplan", *workerFaultplan)
	}

	fingerprint := p.Fingerprint(exp.BuildFingerprint())
	store, err := exp.OpenStore(*storeDir, fingerprint)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bearserve:", err)
		os.Exit(1)
	}

	bin := *workerBin
	if bin == "" {
		bin = siblingBearbench()
	}
	s := serve.New(serve.Config{
		WorkerCmd:    append([]string{bin}, workerArgs...),
		Workers:      *workers,
		Store:        store,
		StoreDir:     *storeDir,
		Fingerprint:  fingerprint,
		MaxAttempts:  *attempts,
		UnitDeadline: *deadline,
		Params:       p,
		Seed:         p.Seed,
	})
	s.Start()

	// A drain manifest from a previous SIGTERM resumes automatically.
	if left, err := serve.ReadCheckpoint(*storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "bearserve:", err)
	} else if len(left) > 0 {
		if n, err := s.Submit(left); err != nil {
			fmt.Fprintln(os.Stderr, "bearserve: resuming checkpoint:", err)
		} else {
			fmt.Fprintf(os.Stderr, "bearserve: resumed %d checkpointed unit(s)\n", n)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "bearserve:", err)
			os.Exit(1)
		}
	}()
	fmt.Fprintf(os.Stderr, "bearserve: listening on %s (fingerprint %s, %d workers)\n",
		*addr, fingerprint, *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "bearserve: draining (readyz now 503; in-flight units finishing)")
	if err := s.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "bearserve: checkpoint:", err)
	}
	// The HTTP surface stays up during the drain so /healthz and
	// /progress remain observable; shut it down last.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx)
	pr := s.Progress()
	fmt.Fprintf(os.Stderr, "bearserve: drained: %d done, %d failed, %d checkpointed\n",
		pr.Done, pr.Failed, pr.Interrupted)
}

// siblingBearbench prefers the bearbench binary sitting next to this
// executable (the layout `go build ./...` and the CI scripts produce),
// falling back to whatever PATH resolves.
func siblingBearbench() string {
	if self, err := os.Executable(); err == nil {
		cand := self[:len(self)-len("bearserve")] + "bearbench"
		if fi, err := os.Stat(cand); err == nil && !fi.IsDir() {
			return cand
		}
	}
	return "bearbench"
}
