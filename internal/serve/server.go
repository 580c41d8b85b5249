package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bear/internal/config"
	"bear/internal/exp"
	"bear/internal/faultpoint"
)

// Config parameterises a Server. Zero fields take the documented defaults
// (see fill).
type Config struct {
	// WorkerCmd is the argv to exec one worker subprocess — typically
	// {"bearbench", "-worker", ...params...}. The params must reproduce
	// Fingerprint exactly or the handshake refuses the worker.
	WorkerCmd []string
	// Workers is the pool size (default 1).
	Workers int
	// Store receives every completed unit and serves /result.
	Store *exp.Store
	// StoreDir is the store's directory; the SIGTERM drain writes its
	// checkpoint manifest (pending.json) there.
	StoreDir string
	// Fingerprint is the result-store fingerprint workers must match.
	Fingerprint string
	// MaxAttempts bounds tries per unit, first run included (default 3).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the retry schedule (default 250ms/10s);
	// see Backoff for the jitter discipline. Seed feeds the jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Seed        uint64
	// UnitDeadline is the wall-clock budget per unit attempt; derive it
	// from the sweep's instruction budgets with DeadlineFor (the default).
	UnitDeadline time.Duration
	// Params is used only to derive UnitDeadline when it is zero.
	Params exp.Params
}

// DeadlineFor derives a per-unit wall-clock deadline from the sweep's
// instruction budgets: the simulator retires instructions at a roughly
// constant wall rate (the bench harness holds it near 100 ns/instr), so
// total instructions × a 20× safety margin, plus fixed slack for process
// startup and trace synthesis, bounds any healthy unit. Only a hung or
// livelocked worker sleeps past it.
func DeadlineFor(p exp.Params) time.Duration {
	cores := config.Default(p.Scale).Core.Count
	instr := (p.Warm + p.Meas) * uint64(cores)
	return 15*time.Second + time.Duration(instr)*2*time.Microsecond
}

func (c Config) fill() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Second
	}
	if c.UnitDeadline <= 0 {
		c.UnitDeadline = DeadlineFor(c.Params)
	}
	return c
}

// Unit lifecycle states.
const (
	StateQueued       = "queued"
	StateBackoff      = "backoff" // failed attempt, waiting to retry
	StateRunning      = "running"
	StateDone         = "done"
	StateFailed       = "failed"       // terminal: attempts exhausted
	StateInterrupted  = "interrupted"  // drain hit the unit mid-flight
	StateCheckpointed = "checkpointed" // written to the drain manifest
)

type unit struct {
	spec     exp.UnitSpec
	key      string
	state    string
	attempts int
	errs     []string // one entry per failed attempt, in attempt order
}

// Server schedules sweep units onto a supervised pool of worker
// subprocesses and serves results over HTTP. See the package comment for
// the failure model.
type Server struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	units    map[string]*unit
	ready    []*unit // dispatch queue (FIFO)
	pending  int     // units not yet terminal
	retries  int     // failed attempts that were rescheduled
	timers   []*time.Timer
	draining bool
	started  bool

	wg sync.WaitGroup
}

// New builds a Server; call Start to launch the pool.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.fill(), units: map[string]*unit{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start launches the worker pool.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
}

// Submit validates and enqueues units; units whose key is already known
// (in any state) are skipped, making submission idempotent. It reports
// how many were newly accepted. Units with L4 overrides are refused:
// /result and /progress name a unit by its design and workload alone.
func (s *Server) Submit(specs []exp.UnitSpec) (int, error) {
	type keyed struct {
		spec exp.UnitSpec
		key  string
	}
	ks := make([]keyed, 0, len(specs))
	for _, spec := range specs {
		if spec != (exp.UnitSpec{Design: spec.Design, Workload: spec.Workload}) {
			return 0, fmt.Errorf("serve: unit %s: L4 overrides are not served", spec)
		}
		key, err := spec.Key()
		if err != nil {
			return 0, err
		}
		ks = append(ks, keyed{spec, key})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, fmt.Errorf("serve: draining, not accepting new units")
	}
	accepted := 0
	for _, k := range ks {
		if _, dup := s.units[k.key]; dup {
			continue
		}
		u := &unit{spec: k.spec, key: k.key, state: StateQueued}
		s.units[k.key] = u
		s.ready = append(s.ready, u)
		s.pending++
		accepted++
		s.cond.Signal()
	}
	return accepted, nil
}

// next blocks until a unit is dispatchable (returning it in StateRunning
// with its attempt counted) or the server drains (returning nil).
func (s *Server) next() *unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		if len(s.ready) > 0 {
			u := s.ready[0]
			s.ready = s.ready[1:]
			u.attempts++
			u.state = StateRunning
			return u
		}
		s.cond.Wait()
	}
}

// workerLoop is one pool slot: it owns (at most) one worker subprocess at
// a time and feeds it units until drain.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	w := newWorkerProc(s.cfg.WorkerCmd, s.cfg.Fingerprint)
	defer w.stop(2 * time.Second)
	for {
		u := s.next()
		if u == nil {
			return
		}
		s.complete(u, s.attempt(w, u))
	}
}

// attempt runs one try of a unit on the given worker and returns its
// verdict. The "sched.dispatch" faultpoint site models the scheduler
// itself losing a dispatched unit (keyed by unit and attempt, so chaos
// plans replay exactly); the read-back after Ingest catches store-level
// write faults — a torn or corrupted entry fails the attempt now, when
// the unit can still be retried, not at collection time.
func (s *Server) attempt(w *workerProc, u *unit) error {
	if faultpoint.HitAt("sched.dispatch", u.key, u.attempts) == faultpoint.SchedDrop {
		return fmt.Errorf("injected fault: scheduler dropped the dispatched unit")
	}
	reply, err := w.run(WorkRequest{Unit: u.spec, Attempt: u.attempts}, s.cfg.UnitDeadline)
	if err != nil {
		return err
	}
	if !reply.OK {
		return fmt.Errorf("unit failed in worker: %s", reply.Error)
	}
	key, err := s.cfg.Store.Ingest(reply.Envelope)
	if err != nil {
		return err
	}
	if key != u.key {
		return fmt.Errorf("worker answered for unit %q, expected %q", key, u.key)
	}
	if _, ok := s.cfg.Store.Load(u.key); !ok {
		return fmt.Errorf("stored entry failed read-back verification (torn or corrupt write)")
	}
	return nil
}

// complete applies an attempt's verdict: success finishes the unit,
// failure records it in the retry table and either schedules the retry
// (capped exponential backoff with deterministic jitter) or, with
// attempts exhausted, fails the unit terminally.
func (s *Server) complete(u *unit, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		u.state = StateDone
		s.pending--
		return
	}
	u.errs = append(u.errs, fmt.Sprintf("attempt %d: %v", u.attempts, err))
	if s.draining {
		u.state = StateInterrupted
		return
	}
	if u.attempts >= s.cfg.MaxAttempts {
		u.state = StateFailed
		s.pending--
		return
	}
	u.state = StateBackoff
	s.retries++
	delay := Backoff(s.cfg.BaseBackoff, s.cfg.MaxBackoff, s.cfg.Seed, u.key, u.attempts+1)
	s.timers = append(s.timers, time.AfterFunc(delay, func() { s.requeue(u) }))
}

func (s *Server) requeue(u *unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || u.state != StateBackoff {
		return
	}
	u.state = StateQueued
	s.ready = append(s.ready, u)
	s.cond.Signal()
}

// Wait blocks until every submitted unit is terminal (done or failed), or
// the server drains. Tests and the CLI's one-shot mode use it; the HTTP
// surface exposes the same information incrementally via /progress.
func (s *Server) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending > 0 && !s.draining {
		s.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		s.mu.Lock()
	}
}

// Drain is the SIGTERM path: stop dispatching, let in-flight units finish
// (their results land in the store — that is the checkpoint), then write
// every unfinished unit into the resume manifest. /readyz flips to 503
// the moment draining begins; /healthz stays healthy throughout, so an
// orchestrator sees "alive but not accepting" exactly as intended.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for _, t := range s.timers {
		t.Stop()
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.wg.Wait() // in-flight attempts run to completion and persist
	return s.checkpoint()
}

// checkpointManifest is the drain manifest format (pending.json in the
// store directory): the units a resumed sweep must still run.
type checkpointManifest struct {
	Fingerprint string         `json:"fingerprint"`
	Units       []exp.UnitSpec `json:"units"`
}

// checkpoint writes the unfinished units into StoreDir/pending.json so
// the next bearserve (or a bearbench -resume sweep over the same store)
// picks up exactly where the drain stopped.
func (s *Server) checkpoint() error {
	s.mu.Lock()
	var left []*unit
	keys := make([]string, 0, len(s.units))
	for k := range s.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := s.units[k]
		switch u.state {
		case StateQueued, StateBackoff, StateRunning, StateInterrupted:
			u.state = StateCheckpointed
			left = append(left, u)
		}
	}
	s.mu.Unlock()
	if s.cfg.StoreDir == "" || len(left) == 0 {
		return nil
	}
	m := checkpointManifest{Fingerprint: s.cfg.Fingerprint}
	for _, u := range left {
		m.Units = append(m.Units, u.spec)
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.cfg.StoreDir, "pending.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpoint loads a drain manifest left in a store directory, if
// any, so a restarted server can resubmit the unfinished units.
func ReadCheckpoint(dir string) ([]exp.UnitSpec, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "pending.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m checkpointManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("serve: corrupt drain manifest: %w", err)
	}
	return m.Units, nil
}

// --- Introspection. ---

// UnitStatus is one unit's row in the /progress table.
type UnitStatus struct {
	Design   string   `json:"design"`
	Workload string   `json:"workload"`
	State    string   `json:"state"`
	Attempts int      `json:"attempts"`
	Errors   []string `json:"errors,omitempty"`
}

// Progress is the /progress document: sweep counters plus the
// deterministic per-unit failure/retry table (sorted by unit key, each
// attempt's error in attempt order) and the server-side injected-fault
// table. With a fixed fault plan the Units table is byte-identical run to
// run — concurrency moves *when* an injected fault fires, never on which
// unit or attempt.
type Progress struct {
	Fingerprint string       `json:"fingerprint"`
	Draining    bool         `json:"draining"`
	Queued      int          `json:"queued"`
	Running     int          `json:"running"`
	Done        int          `json:"done"`
	Failed      int          `json:"failed"`
	Interrupted int          `json:"interrupted"`
	Retries     int          `json:"retries"`
	Units       []UnitStatus `json:"units"`
	Faults      []string     `json:"faults,omitempty"`
}

// Progress snapshots the sweep state.
func (s *Server) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Progress{
		Fingerprint: s.cfg.Fingerprint,
		Draining:    s.draining,
		Retries:     s.retries,
	}
	keys := make([]string, 0, len(s.units))
	for k := range s.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := s.units[k]
		switch u.state {
		case StateQueued, StateBackoff:
			p.Queued++
		case StateRunning:
			p.Running++
		case StateDone:
			p.Done++
		case StateFailed:
			p.Failed++
		case StateInterrupted, StateCheckpointed:
			p.Interrupted++
		}
		p.Units = append(p.Units, UnitStatus{
			Design:   u.spec.Design,
			Workload: u.spec.Workload,
			State:    u.state,
			Attempts: u.attempts,
			Errors:   append([]string(nil), u.errs...),
		})
	}
	for _, rec := range faultpoint.Fired() {
		p.Faults = append(p.Faults, rec.String())
	}
	return p
}

// --- HTTP surface. ---

// Handler returns the daemon's HTTP mux:
//
//	POST /sweep     {"units":[{"design":..,"workload":..},...]} → enqueue
//	GET  /progress  sweep counters + deterministic failure/retry table
//	GET  /result    ?design=&workload= → stored result (see below)
//	GET  /healthz   200 while the process lives (liveness)
//	GET  /readyz    200 while accepting work; 503 once draining (readiness)
//
// /result serves the unit's store entry under the server's fingerprint
// (200, labelled X-Bear-Fingerprint); a unit whose attempts are exhausted
// answers 500 with its last error, any other submitted unit 202, and an
// unknown unit 404. An entry of another fingerprint, from
// another build or parameter set, is never served.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ready := s.started && !s.draining
		s.mu.Unlock()
		if !ready {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Progress())
	})
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/result", s.handleResult)
	return mux
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body struct {
		Units []exp.UnitSpec `json:"units"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body.Units) == 0 {
		http.Error(w, "no units", http.StatusBadRequest)
		return
	}
	accepted, err := s.Submit(body.Units)
	if err != nil {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		code := http.StatusBadRequest
		if draining {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]int{"accepted": accepted, "submitted": len(body.Units)})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	u := exp.UnitSpec{Design: r.URL.Query().Get("design"), Workload: r.URL.Query().Get("workload")}
	key, err := u.Key()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if res, ok := s.cfg.Store.Load(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Bear-Fingerprint", s.cfg.Fingerprint)
		json.NewEncoder(w).Encode(res)
		return
	}
	s.mu.Lock()
	var state, lastErr string
	un, known := s.units[key]
	if known {
		state = un.state
		if n := len(un.errs); n > 0 {
			lastErr = un.errs[n-1]
		}
	}
	s.mu.Unlock()
	switch {
	case state == StateFailed:
		// Terminal: no result will ever come, so a poller must stop.
		http.Error(w, "unit failed: "+lastErr, http.StatusInternalServerError)
		return
	case known:
		http.Error(w, "unit pending", http.StatusAccepted)
		return
	}
	http.Error(w, "no result for unit (submit it via POST /sweep)", http.StatusNotFound)
}
