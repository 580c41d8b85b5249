// Package exp implements the paper's evaluation: one registered experiment
// per table and figure, each regenerating the corresponding rows from live
// simulations. cmd/bearbench and the repository's bench harness drive this
// registry.
//
// Every simulation is independent and deterministic (seeded RNG, totally
// ordered event queue), so the Runner executes them on a bounded worker
// pool: experiments launch futures for the (spec, workload) pairs they
// need and collect results in a fixed order, which makes parallel and
// serial sweeps byte-identical.
package exp

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

// Params controls simulation sizes for every experiment.
type Params struct {
	// Scale divides the paper's machine and footprints (see config).
	Scale int
	// Warm and Meas are per-core instruction budgets.
	Warm, Meas uint64
	// Mixes is how many MIX workloads aggregate into MIX/ALL results
	// (the paper uses 38; 8 keeps runs short).
	Mixes int
	Seed  uint64
	// Watchdog bounds every simulation the Runner executes (see
	// hier.Watchdog). The zero value applies the default thresholds; it
	// is not part of the result-store fingerprint because the monitors
	// never change results, only whether a wedged run dies cleanly.
	Watchdog hier.Watchdog
}

// Fingerprint identifies the result-affecting parameters plus a caller
// context string (typically the build's VCS revision). Stored results are
// reused only when fingerprints match exactly, so a store populated by a
// different code version or parameter set is discarded, not trusted.
func (p Params) Fingerprint(extra string) string {
	return fmt.Sprintf("v1|scale=%d|warm=%d|meas=%d|mixes=%d|seed=%d|%s",
		p.Scale, p.Warm, p.Meas, p.Mixes, p.Seed, extra)
}

// BuildFingerprint identifies the simulator build, the usual extra string
// for Fingerprint: results cached by a different code version must not be
// trusted. Binaries built inside the git checkout carry the VCS revision;
// anything else (e.g. `go run` of a modified tree without VCS stamping)
// degrades to a shared "dev" fingerprint. bearbench, bearserve and bearsim
// all derive it here, so binaries built from one tree agree on it and
// bearserve's worker handshake accepts them.
func BuildFingerprint() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return "dev"
}

// Default returns parameters that reproduce the paper's shapes in a few
// minutes per experiment.
func Default() Params {
	return Params{Scale: 64, Warm: 600_000, Meas: 1_200_000, Mixes: 8, Seed: 1}
}

// Quick returns parameters for smoke-testing experiments in seconds.
func Quick() Params {
	return Params{Scale: 256, Warm: 100_000, Meas: 250_000, Mixes: 2, Seed: 1}
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID       string
	Title    string
	Artifact string // "Figure 3", "Table 4", ...
	About    string // workloads, parameters and modules exercised
	Run      func(p Params, w io.Writer, r *Runner) error
}

var (
	registry []Experiment
	byID     = map[string]Experiment{}
)

func register(e Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	byID[e.ID] = e
	registry = append(registry, e)
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	if e, ok := byID[id]; ok {
		return e, nil
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// spec identifies a system configuration for the memo cache.
type spec struct {
	design     config.Design
	bypass     config.BypassPolicy
	prob       float64
	dcp, ntc   bool
	channels   int
	banks      int
	capacityMB int64
	ntcEntries int // 0 = paper default (8)
	pred       config.PredMode
	wbAllocate bool
	ttc        bool
	dip        bool
}

// baseSpec returns the paper-default system for a design (BEAR expands to
// its three components).
func baseSpec(d config.Design) spec {
	s := spec{design: d, prob: 0.9}
	if d == config.BEAR {
		s.bypass = config.BandwidthAware
		s.dcp, s.ntc = true, true
	}
	return s
}

func (s spec) build(p Params) config.System {
	sys := config.Default(p.Scale)
	sys.Design = s.design
	sys.Bypass = s.bypass
	sys.BypassProb = s.prob
	sys.UseDCP = s.dcp
	sys.UseNTC = s.ntc
	if s.channels > 0 {
		sys.L4.Channels = s.channels
	}
	if s.banks > 0 {
		sys.L4.Banks = s.banks
	}
	if s.capacityMB > 0 {
		sys.CacheBytes = s.capacityMB << 20 / int64(p.Scale)
	}
	if s.ntcEntries > 0 {
		sys.NTCEntriesPerBank = s.ntcEntries
	}
	sys.Pred = s.pred
	sys.WBAllocate = s.wbAllocate
	sys.UseTTC = s.ttc
	sys.UseDIP = s.dip
	sys.Seed = p.Seed
	return sys
}

// memoKey is the memo-cache key: the spec struct itself plus the workload
// name. Specs are small comparable structs, so keys need no per-call
// formatting — the Runner was previously building a ~100-byte fmt string
// for every lookup, hit or miss. Params are fixed per Runner and so are
// not part of the key.
type memoKey struct {
	s  spec
	wl string
}

// task is one memoised simulation: created exactly once per memoKey
// (singleflight), executed on the worker pool, awaited by any number of
// futures.
type task struct {
	res  *stats.Run
	err  error
	done chan struct{}
}

// Future is a handle to an in-flight (or completed) simulation.
type Future struct{ t *task }

// Wait blocks until the simulation completes and returns its result.
func (f Future) Wait() (*stats.Run, error) {
	<-f.t.done
	return f.t.res, f.t.err
}

// Runner executes simulations with memoisation, so experiments sharing a
// configuration (every figure reuses the Alloy baseline) run it once — and
// with a bounded worker pool, so independent simulations run concurrently.
//
// Requesting the same (spec, workload) twice — even from two goroutines at
// once — shares one in-flight simulation (singleflight). Results are
// collected by callers in a deterministic order, and each simulation is
// itself deterministic, so runs at any Parallel setting are byte-identical.
type Runner struct {
	p Params

	// Parallel bounds concurrently executing simulations. NewRunner sets
	// it to runtime.GOMAXPROCS(0); set it to 1 (before the first request)
	// for a strictly serial sweep.
	Parallel int

	// Log, when non-nil, receives one line per completed simulation.
	// Lines are written atomically (single Write under a mutex), so
	// worker output never interleaves mid-line.
	Log io.Writer

	// Store, when non-nil, is consulted before simulating and updated
	// after: completed units are restored instead of re-simulated, which
	// makes interrupted sweeps resumable. Set before the first request.
	Store *Store

	mu          sync.Mutex
	memo        map[memoKey]*task
	sem         chan struct{} // worker slots, sized from Parallel on first use
	count       int
	restored    int
	interrupted bool
	failures    map[memoKey]Failure

	logMu  sync.Mutex
	queues sync.Pool // *event.Queue, reused across simulations per worker
}

// NewRunner builds a runner for the given parameters, parallel across
// runtime.GOMAXPROCS(0) workers by default.
func NewRunner(p Params) *Runner {
	return &Runner{
		p:        p,
		Parallel: runtime.GOMAXPROCS(0),
		memo:     make(map[memoKey]*task),
		failures: make(map[memoKey]Failure),
	}
}

// Count reports how many simulations have actually executed (memo hits,
// deduplicated in-flight requests and store-restored results do not run).
func (r *Runner) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Restored reports how many results were served from the Store instead of
// being simulated.
func (r *Runner) Restored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}

func (r *Runner) progress(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format, args...)
}

// start returns the task for (s, wlName), launching it on the worker pool
// if this is the first request for that key.
func (r *Runner) start(s spec, wlName string, mk func() (trace.Workload, error)) *task {
	key := memoKey{s: s, wl: wlName}
	r.mu.Lock()
	if t, ok := r.memo[key]; ok {
		r.mu.Unlock()
		return t
	}
	if r.interrupted {
		// Drain mode: refuse to start anything new, without memoising the
		// refusal — a later sweep over the same store must re-request it.
		r.mu.Unlock()
		t := &task{err: ErrInterrupted, done: make(chan struct{})}
		close(t.done)
		return t
	}
	if r.sem == nil {
		workers := r.Parallel
		if workers < 1 {
			workers = 1
		}
		r.sem = make(chan struct{}, workers)
	}
	t := &task{done: make(chan struct{})}
	r.memo[key] = t
	sem := r.sem
	r.mu.Unlock()

	go func() {
		sem <- struct{}{}
		defer func() { <-sem }()
		// A unit queued before Interrupt but not started is refused like
		// one requested after it, and unmemoised for the same reason.
		r.mu.Lock()
		if r.interrupted {
			delete(r.memo, key)
			t.err = ErrInterrupted
		}
		r.mu.Unlock()
		if t.err == nil {
			t.res, t.err = r.runUnit(key, s, wlName, mk)
		}
		close(t.done)
	}()
	return t
}

// storeKey renders a memoKey for the result store. specs are flat structs
// of value fields, so %+v is a stable, collision-free rendering.
func storeKey(key memoKey) string {
	return fmt.Sprintf("%+v|%s", key.s, key.wl)
}

// runUnit executes one simulation unit with fault isolation: a panic
// anywhere in the simulation stack is recovered into a *SimError carrying
// the unit's identity and the worker's stack trace, so a faulty design or
// workload fails its own futures instead of crashing the whole sweep.
// With a Store attached, completed units are restored instead of re-run,
// and fresh results are persisted for future resumes. Every failure is
// recorded for the sweep-level failure table.
func (r *Runner) runUnit(key memoKey, s spec, wlName string, mk func() (trace.Workload, error)) (res *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &SimError{
				Design:   s.design.String(),
				Workload: wlName,
				Seed:     r.p.Seed,
				Value:    v,
				Stack:    string(debug.Stack()),
			}
			res = nil
		}
		if err != nil && !errors.Is(err, ErrInterrupted) {
			r.mu.Lock()
			r.failures[key] = Failure{Design: s.design.String(), Workload: key.wl, Err: err}
			r.mu.Unlock()
		}
	}()
	if r.Store != nil {
		if cached, ok := r.Store.Load(storeKey(key)); ok {
			r.mu.Lock()
			r.restored++
			r.mu.Unlock()
			return cached, nil
		}
	}
	res, err = r.simulate(s, wlName, mk)
	if err != nil {
		return nil, err
	}
	if r.Store != nil {
		r.Store.Save(storeKey(key), res)
	}
	return res, nil
}

// simulate builds and runs one simulation on the calling worker goroutine.
func (r *Runner) simulate(s spec, wlName string, mk func() (trace.Workload, error)) (*stats.Run, error) {
	wl, err := mk()
	if err != nil {
		return nil, err
	}
	sys := s.build(r.p)
	q, _ := r.queues.Get().(*event.Queue)
	if q == nil {
		q = new(event.Queue)
	}
	// A failed or panicking run leaves events behind; NewSimQueue resets
	// the queue before its next use, so it goes back to the pool anyway.
	defer r.queues.Put(q)
	sim, err := hier.NewSimQueue(sys, wl, r.p.Warm, r.p.Meas, q)
	if err != nil {
		return nil, err
	}
	sim.Watchdog = r.p.Watchdog
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	r.count++
	n := r.count
	r.mu.Unlock()
	r.progress("  [%3d] %-10s %-10s bloat=%5.2f hit=%4.1f%% hitlat=%4.0f ipc=%5.2f\n",
		n, wlName, sys.Design, res.L4.BloatFactor(), 100*res.L4.HitRate(),
		res.L4.AvgHitLatency(), res.IPC())
	return res, nil
}

// RateAsync starts (or joins) the rate-mode simulation of a benchmark and
// returns a future for its result.
func (r *Runner) RateAsync(s spec, bench string) Future {
	cores := config.Default(r.p.Scale).Core.Count
	return Future{r.start(s, bench, func() (trace.Workload, error) {
		return trace.Rate(bench, cores, r.p.Scale, r.p.Seed)
	})}
}

// MixAsync starts (or joins) mixed workload n and returns a future.
func (r *Runner) MixAsync(s spec, n int) Future {
	cores := config.Default(r.p.Scale).Core.Count
	return Future{r.start(s, fmt.Sprintf("MIX%d", n), func() (trace.Workload, error) {
		return trace.Mix(n, cores, r.p.Scale, r.p.Seed)
	})}
}

// SingleAsync starts (or joins) a benchmark alone on one core, for
// Equation 2's single-program IPC denominators.
func (r *Runner) SingleAsync(s spec, bench string) Future {
	cores := config.Default(r.p.Scale).Core.Count
	return Future{r.start(s, bench+"@single", func() (trace.Workload, error) {
		return trace.Single(bench, cores, r.p.Scale, r.p.Seed)
	})}
}

// Rate runs (or recalls) the rate-mode workload for a benchmark.
func (r *Runner) Rate(s spec, bench string) (*stats.Run, error) {
	return r.RateAsync(s, bench).Wait()
}

// Mix runs (or recalls) mixed workload n.
func (r *Runner) Mix(s spec, n int) (*stats.Run, error) {
	return r.MixAsync(s, n).Wait()
}

// Single runs (or recalls) a benchmark alone on one core.
func (r *Runner) Single(s spec, bench string) (*stats.Run, error) {
	return r.SingleAsync(s, bench).Wait()
}

// PrefetchRate fans the full (spec, workload) cross product out to the
// worker pool without waiting. Experiments call it up front so that the
// sequential result-collection loops that follow find every simulation
// already running (or memoised).
func (r *Runner) PrefetchRate(specs []spec, names []string) {
	for _, s := range specs {
		for _, name := range names {
			r.RateAsync(s, name)
		}
	}
}

// PrefetchMix fans the first n mixed workloads out for each spec.
func (r *Runner) PrefetchMix(specs []spec, n int) {
	for _, s := range specs {
		for m := 1; m <= n; m++ {
			r.MixAsync(s, m)
		}
	}
}

// PrefetchMixWS additionally starts the single-program runs Equation 2
// needs for weighted speedups of the first n mixes.
func (r *Runner) PrefetchMixWS(specs []spec, n int) {
	r.PrefetchMix(specs, n)
	cores := config.Default(r.p.Scale).Core.Count
	for m := 1; m <= n; m++ {
		wl, err := trace.Mix(m, cores, r.p.Scale, r.p.Seed)
		if err != nil {
			continue // surfaced by the collection phase
		}
		for _, s := range specs {
			for _, b := range wl.Benchs {
				r.SingleAsync(s, b.Name)
			}
		}
	}
}

// aggregate combines runs byte-weighted for bandwidth metrics.
type aggregate struct {
	l4 stats.L4
}

func (a *aggregate) add(r *stats.Run) {
	src := &r.L4
	for i := range a.l4.Bytes {
		a.l4.Bytes[i] += src.Bytes[i]
	}
	a.l4.ReadHits += src.ReadHits
	a.l4.ReadMisses += src.ReadMisses
	a.l4.HitLatSum += src.HitLatSum
	a.l4.MissLatSum += src.MissLatSum
	a.l4.Bypasses += src.Bypasses
}

// rateSpeedups returns per-benchmark speedups of s over base, in catalog
// order, plus the geometric mean. Both sweeps run concurrently; results
// are folded in catalog order so the output is independent of Parallel.
func (r *Runner) rateSpeedups(s, base spec) (map[string]float64, float64, error) {
	names := trace.RateNames()
	bases := make([]Future, len(names))
	vs := make([]Future, len(names))
	for i, name := range names {
		bases[i] = r.RateAsync(base, name)
		vs[i] = r.RateAsync(s, name)
	}
	per := map[string]float64{}
	var all []float64
	for i, name := range names {
		b, err := bases[i].Wait()
		if err != nil {
			return nil, 0, err
		}
		v, err := vs[i].Wait()
		if err != nil {
			return nil, 0, err
		}
		sp := v.Speedup(b)
		per[name] = sp
		all = append(all, sp)
	}
	return per, stats.GeoMean(all), nil
}

// mixNormWS returns normalized weighted speedups of s over base for the
// first n mixes, plus the geometric mean. Weighted speedup uses Equation 2
// with single-program IPCs measured per design.
func (r *Runner) mixNormWS(s, base spec, n int) (map[string]float64, float64, error) {
	r.PrefetchMixWS([]spec{base, s}, n)
	cores := config.Default(r.p.Scale).Core.Count
	singles := func(sp spec, benchs []trace.Benchmark) ([]float64, error) {
		out := make([]float64, len(benchs))
		for i, b := range benchs {
			run, err := r.Single(sp, b.Name)
			if err != nil {
				return nil, err
			}
			out[i] = run.CoreIPC[0]
		}
		return out, nil
	}
	per := map[string]float64{}
	var all []float64
	for m := 1; m <= n; m++ {
		wl, err := trace.Mix(m, cores, r.p.Scale, r.p.Seed)
		if err != nil {
			return nil, 0, err
		}
		bRun, err := r.Mix(base, m)
		if err != nil {
			return nil, 0, err
		}
		vRun, err := r.Mix(s, m)
		if err != nil {
			return nil, 0, err
		}
		bSingles, err := singles(base, wl.Benchs)
		if err != nil {
			return nil, 0, err
		}
		vSingles, err := singles(s, wl.Benchs)
		if err != nil {
			return nil, 0, err
		}
		bWS := bRun.WeightedSpeedup(bSingles)
		vWS := vRun.WeightedSpeedup(vSingles)
		if bWS <= 0 {
			continue
		}
		norm := vWS / bWS
		per[wl.Name] = norm
		all = append(all, norm)
	}
	return per, stats.GeoMean(all), nil
}

// allGeomean merges rate and mix relative performance into the paper's
// RATE / MIX / ALL triple.
func (r *Runner) allGeomean(s, base spec) (rate, mix, all float64, err error) {
	// Start the mix/single sweep before blocking on the rate sweep.
	r.PrefetchMixWS([]spec{base, s}, r.p.Mixes)
	perRate, rateG, err := r.rateSpeedups(s, base)
	if err != nil {
		return 0, 0, 0, err
	}
	perMix, mixG, err := r.mixNormWS(s, base, r.p.Mixes)
	if err != nil {
		return 0, 0, 0, err
	}
	// Fold in a fixed order (not map order): GeoMean sums logs, and
	// float addition order must not depend on map iteration for runs to
	// be byte-identical.
	var xs []float64
	for _, name := range trace.RateNames() {
		if v, ok := perRate[name]; ok {
			xs = append(xs, v)
		}
	}
	for m := 1; m <= r.p.Mixes; m++ {
		if v, ok := perMix[fmt.Sprintf("MIX%d", m)]; ok {
			xs = append(xs, v)
		}
	}
	return rateG, mixG, stats.GeoMean(xs), nil
}
