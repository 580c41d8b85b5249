package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"bear/internal/config"
	"bear/internal/exp"
	"bear/internal/serve"
)

// sweepWorkers is the serve pool size: one bearbench worker per CPU of the
// two-CPU machine the benchmark is sized for.
const sweepWorkers = 2

// serveSetups is how many times a sweep-serve run times its set-up.
const serveSetups = 11

// params are the exp.Params of the workload's geometry. workerCmd passes
// every field to the workers, so both sides derive the same fingerprint.
func (b *bench) params() exp.Params {
	return exp.Params{Scale: b.w.scale, Warm: b.w.warm, Meas: b.w.meas,
		Mixes: exp.Default().Mixes, Seed: b.o.seed}
}

func (b *bench) workerCmd() []string {
	p := b.params()
	return []string{b.o.bearbench, "-worker",
		"-scale", strconv.Itoa(p.Scale),
		"-warm", strconv.FormatUint(p.Warm, 10),
		"-meas", strconv.FormatUint(p.Meas, 10),
		"-mixes", strconv.Itoa(p.Mixes),
		"-seed", strconv.FormatUint(p.Seed, 10)}
}

// fingerprint is the store fingerprint of a bearbench built without VCS
// stamping, as run.sh builds it.
func (b *bench) fingerprint() string { return b.params().Fingerprint("dev") }

// cores is the simulated core count of the workload's geometry.
func (b *bench) cores() int { return config.Default(b.w.scale).Core.Count }

// startServer opens a fresh result store and starts a server on it. stop
// drains the server, which stops its workers, and deletes the store.
func (b *bench) startServer() (*serve.Server, *exp.Store, func(), error) {
	dir, err := os.MkdirTemp(b.o.workdir, "store-")
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := exp.OpenStore(dir, b.fingerprint())
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	p := b.params()
	s := serve.New(serve.Config{
		WorkerCmd:   b.workerCmd(),
		Workers:     sweepWorkers,
		Store:       store,
		Fingerprint: b.fingerprint(),
		Params:      p,
		Seed:        p.Seed,
	})
	s.Start()
	stop := func() {
		s.Drain() // without a StoreDir there is no checkpoint to fail
		os.RemoveAll(dir)
	}
	return s, store, stop, nil
}

// serveSetup times the sweep path's set-up once: result store and server
// construction, pool start, and the spawn and fingerprint handshake of one
// worker per pool slot, ending where the first unit can be dispatched. The
// pool spawns its workers lazily, at first dispatch, so the handshake is
// timed on workers launched here with the pool's exact command line. It
// also returns the live heap at the end of set-up.
func (b *bench) serveSetup() (time.Duration, float64, error) {
	start := time.Now()
	_, _, stop, err := b.startServer()
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	stopWorkers, err := spawnWorkers(b.workerCmd(), b.fingerprint(), sweepWorkers)
	d := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	heap := liveHeapMB()
	stopWorkers()
	return d, heap, nil
}

// worker is one spawned bearbench -worker process.
type worker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// spawnWorkers starts n copies of argv and reads each one's Hello frame,
// checking its fingerprint: the handshake serve's pool performs before it
// dispatches. stop closes the workers' stdin and waits for them to exit.
func spawnWorkers(argv []string, fingerprint string, n int) (stop func(), err error) {
	var ws []worker
	stop = func() {
		for _, w := range ws {
			w.in.Close() // EOF ends the worker's request loop
			w.cmd.Wait()
		}
	}
	for i := 0; i < n; i++ {
		w, err := startWorker(argv)
		if err != nil {
			stop()
			return nil, err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		line, err := w.out.ReadBytes('\n')
		var hello serve.Hello
		if err == nil {
			err = json.Unmarshal(line, &hello)
		}
		if err == nil && (!hello.Hello || hello.Fingerprint != fingerprint) {
			err = fmt.Errorf("got %q, want fingerprint %q", line, fingerprint)
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("worker handshake: %w", err)
		}
	}
	return stop, nil
}

func startWorker(argv []string) (worker, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return worker{}, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return worker{}, err
	}
	if err := cmd.Start(); err != nil {
		return worker{}, fmt.Errorf("spawning worker: %w", err)
	}
	return worker{cmd, in, bufio.NewReader(out)}, nil
}

// reference runs every unit in-process through exp.Runner.RunUnit, one at a
// time. It returns each unit's result digest by store key, which the other
// paths must reproduce, and each unit's wall time in seconds.
func (b *bench) reference() (map[string]string, []float64) {
	r := exp.NewRunner(b.params())
	r.Parallel = 1
	ref := map[string]string{}
	var secs []float64
	for _, u := range b.w.units {
		b.attempted++
		start := time.Now()
		res, err := r.RunUnit(u)
		secs = append(secs, time.Since(start).Seconds())
		var key, d string
		if err == nil {
			err = checkRun(res, b.cores(), b.w.meas)
		}
		if err == nil {
			key, err = u.Key()
		}
		if err == nil {
			d, err = digest(res)
		}
		if err != nil {
			b.fail("%s: in-process RunUnit: %v", u, err)
			continue
		}
		ref[key] = d
	}
	return ref, secs
}

// sweep submits every unit to a fresh serve.Server and returns the wall
// time from Submit until every unit is terminal, with the final Progress.
// Each stored result must equal the in-process reference.
func (b *bench) sweep(ref map[string]string) (time.Duration, serve.Progress, error) {
	s, store, stop, err := b.startServer()
	if err != nil {
		return 0, serve.Progress{}, err
	}
	defer stop()
	start := time.Now()
	if _, err := s.Submit(b.w.units); err != nil {
		return 0, serve.Progress{}, err
	}
	// Progress is polled finer than Wait's 20 ms sleep, which would
	// otherwise quantise the measured wall time.
	p := s.Progress()
	for p.Done+p.Failed < len(b.w.units) {
		time.Sleep(time.Millisecond)
		p = s.Progress()
	}
	wall := time.Since(start)
	s.Wait()
	for _, u := range b.w.units {
		b.attempted++
		if err := b.checkStored(store, u, ref); err != nil {
			b.fail("%s: served: %v", u, err)
		}
	}
	return wall, p, nil
}

// checkStored verifies the sweep's stored result for u against the
// in-process reference.
func (b *bench) checkStored(store *exp.Store, u exp.UnitSpec, ref map[string]string) error {
	key, err := u.Key()
	if err != nil {
		return err
	}
	res, ok := store.Load(key)
	if !ok {
		return fmt.Errorf("no stored result")
	}
	d, err := digest(res)
	if err != nil {
		return err
	}
	if d != ref[key] {
		return fmt.Errorf("stored result %s differs from the in-process RunUnit's %q", d, ref[key])
	}
	return checkRun(res, b.cores(), b.w.meas)
}

// serveRun measures sweep-serve end to end: set-up is timed serveSetups
// times, an in-process reference pass fixes the expected results, and full
// sweeps repeat until the measured phase ends.
func (b *bench) serveRun() (map[string]metric, error) {
	var setup []float64
	var heap float64
	for i := 0; i < serveSetups; i++ {
		d, h, err := b.serveSetup()
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		setup = append(setup, d.Seconds())
		heap = max(heap, h)
	}
	ref, _ := b.reference()
	instr := float64(len(b.w.units)*b.cores()) * float64(b.w.meas)
	var nsPer []float64
	deadline := time.Now().Add(b.o.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		wall, _, err := b.sweep(ref)
		if err != nil {
			return nil, err
		}
		nsPer = append(nsPer, float64(wall.Nanoseconds())/instr)
	}
	return map[string]metric{
		"ns_per_instr": {median(nsPer), "ns/instr"},
		"setup_s":      {median(setup), "s"},
		"heap_mb":      {max(heap, liveHeapMB()), "MB"},
	}, nil
}
