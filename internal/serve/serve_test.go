package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bear/internal/exp"
	"bear/internal/fault"
	"bear/internal/serve/worker"
	"bear/internal/stats"
)

const testFP = "test-fp"

func sampleRun(design, workload string) *stats.Run {
	r := &stats.Run{Design: design, Workload: workload, Cycles: 424242, Instructions: 1000}
	r.L4.ReadHits = 7
	return r
}

// fakeWorker writes a shell script speaking the worker protocol, so the
// supervision machinery is testable without building simulator binaries.
// body runs after the hello line, with one protocol request available per
// `read line`.
func fakeWorker(t *testing.T, fingerprint, body string) []string {
	t.Helper()
	script := fmt.Sprintf("#!/bin/sh\necho '{\"hello\":true,\"fingerprint\":\"%s\"}'\n%s\n", fingerprint, body)
	path := filepath.Join(t.TempDir(), "worker.sh")
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return []string{"/bin/sh", path}
}

func openTestStore(t *testing.T, fp string) (*exp.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := exp.OpenStore(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 2; attempt <= 8; attempt++ {
		d := base << (attempt - 2)
		if d > max || d <= 0 {
			d = max
		}
		got := Backoff(base, max, 7, "unit-a", attempt)
		if got != Backoff(base, max, 7, "unit-a", attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		if got < d/2 || got > d {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, d/2, d)
		}
	}
	if Backoff(base, max, 7, "unit-a", 2) == Backoff(base, max, 7, "unit-b", 2) &&
		Backoff(base, max, 7, "unit-a", 3) == Backoff(base, max, 7, "unit-b", 3) {
		t.Error("distinct units share the whole jitter schedule — no de-synchronisation")
	}
}

func TestWorkerProcSupervision(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string // substring of the expected error
	}{
		{"dies mid-unit", fakeWorker(t, testFP, "read line; exit 7"), "worker exited"},
		{"garbage stdout", fakeWorker(t, testFP, "read line; echo 'not a frame'"), "garbage"},
		{"hangs past deadline", fakeWorker(t, testFP, "read line; sleep 60"), "deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorkerProc(c.argv, testFP)
			defer w.kill()
			_, err := w.run(worker.WorkRequest{Unit: exp.UnitSpec{Design: "Alloy", Workload: "x"}, Attempt: 1},
				500*time.Millisecond)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
			if w.alive() {
				t.Error("failed worker left attached; pool would reuse a broken process")
			}
		})
	}
}

func TestWorkerDeadlineIsTypedWatchdog(t *testing.T) {
	w := newWorkerProc(fakeWorker(t, testFP, "read line; sleep 60"), testFP)
	defer w.kill()
	_, err := w.run(worker.WorkRequest{Unit: exp.UnitSpec{Design: "BEAR", Workload: "mcf"}, Attempt: 2},
		300*time.Millisecond)
	var we *fault.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("deadline error %v is not a *fault.WatchdogError", err)
	}
	if we.Kind != fault.WatchdogDeadline || we.Design != "BEAR" || we.Workload != "mcf" {
		t.Fatalf("watchdog fields = %+v", we)
	}
	if !strings.Contains(we.Error(), "deadline") {
		t.Fatalf("deadline error text %q", we.Error())
	}
}

func TestWorkerFingerprintMismatchRefused(t *testing.T) {
	w := newWorkerProc(fakeWorker(t, "other-fp", "cat >/dev/null"), testFP)
	defer w.kill()
	_, err := w.run(worker.WorkRequest{Unit: exp.UnitSpec{Design: "Alloy", Workload: "x"}, Attempt: 1}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched worker admitted: %v", err)
	}
}

// TestServerRetriesThenFails drives three units of one design against a
// worker that always reports failure: the scheduler must give every unit
// exactly MaxAttempts tries, one retry-table entry per attempt, then fail
// it terminally. Nothing is shed, however many failures the design has.
func TestServerRetriesThenFails(t *testing.T) {
	st, dir := openTestStore(t, testFP)
	s := New(Config{
		WorkerCmd:   fakeWorker(t, testFP, `while read line; do echo '{"ok":false,"error":"boom"}'; done`),
		Workers:     1,
		Store:       st,
		StoreDir:    dir,
		Fingerprint: testFP,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Params:      exp.Quick(),
	})
	s.Start()
	defer s.Drain()
	units := []exp.UnitSpec{
		{Design: "Alloy", Workload: "soplex"},
		{Design: "Alloy", Workload: "libq"},
		{Design: "Alloy", Workload: "mcf"},
	}
	if _, err := s.Submit(units); err != nil {
		t.Fatal(err)
	}
	// Several Wait callers at once: each wakes when the last unit fails,
	// and none takes a requeued unit's wake-up from the pool slot.
	var waiters sync.WaitGroup
	for i := 0; i < 4; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			s.Wait()
		}()
	}
	waiters.Wait()
	p := s.Progress()
	if p.Failed != 3 || p.Done != 0 {
		t.Fatalf("progress = %+v, want 3 failed", p)
	}
	for _, u := range p.Units {
		if u.State != StateFailed || u.Attempts != 3 || len(u.Errors) != 3 {
			t.Fatalf("unit = %+v, want 3 recorded attempts", u)
		}
		for i, e := range u.Errors {
			want := fmt.Sprintf("attempt %d: unit failed in worker: boom", i+1)
			if e != want {
				t.Fatalf("%s/%s retry table entry %d = %q, want %q", u.Design, u.Workload, i, e, want)
			}
		}
	}
	if p.Retries != 6 {
		t.Fatalf("retries = %d, want 6", p.Retries)
	}
	// A failed unit is terminal: /result must say so, not "pending".
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/result?design=Alloy&workload=mcf")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.String(), "attempt 3: unit failed in worker: boom") {
		t.Fatalf("/result for a failed unit = %d %q, want 500 with the last error", resp.StatusCode, body.String())
	}
}

// TestServerRejectsL4Overrides: a unit with L4 overrides is refused with
// 400, along with the rest of its batch, since /result and /progress could
// not name it apart from the default unit.
func TestServerRejectsL4Overrides(t *testing.T) {
	st, dir := openTestStore(t, testFP)
	s := New(Config{
		WorkerCmd:   fakeWorker(t, testFP, `while read line; do :; done`),
		Workers:     1,
		Store:       st,
		StoreDir:    dir,
		Fingerprint: testFP,
		Params:      exp.Quick(),
	})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, body := range []string{
		`{"units":[{"design":"BEAR","workload":"mcf","l4channels":2}]}`,
		`{"units":[{"design":"BEAR","workload":"mcf"},{"design":"LH","workload":"mcf","l4banks":4}]}`,
		`{"units":[{"design":"Alloy","workload":"soplex","capacityMB":512}]}`,
		`{"units":[{"design":"Alloy","workload":"soplex","capacityMB":9223372036854775807}]}`,
	} {
		resp, err := http.Post(hs.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if p := s.Progress(); len(p.Units) != 0 {
		t.Fatalf("refused batches enqueued %d unit(s): %+v", len(p.Units), p.Units)
	}
}

// TestServerEndToEndHTTP drives the full happy path over HTTP against a
// fake worker that replies with a precomputed valid envelope, then checks
// that another fingerprint's entry is never served and that readiness
// flips during drain.
func TestServerEndToEndHTTP(t *testing.T) {
	unit := exp.UnitSpec{Design: "Alloy", Workload: "soplex"}
	key, err := unit.Key()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRun("Alloy", "soplex")
	env, err := exp.EncodeEnvelope(testFP, key, want)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := json.Marshal(worker.WorkReply{OK: true, Envelope: env})
	if err != nil {
		t.Fatal(err)
	}
	replyPath := filepath.Join(t.TempDir(), "reply.json")
	if err := os.WriteFile(replyPath, append(reply, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	// Seed the store directory with another fingerprint's entry for a
	// second unit.
	staleKey, err := exp.UnitSpec{Design: "BEAR", Workload: "libq"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old, err := exp.OpenStore(dir, "fp-old")
	if err != nil {
		t.Fatal(err)
	}
	old.Save(staleKey, sampleRun("BEAR", "libq"))

	st, err := exp.OpenStore(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		WorkerCmd:   fakeWorker(t, testFP, fmt.Sprintf(`while read line; do cat %s; done`, replyPath)),
		Workers:     1,
		Store:       st,
		StoreDir:    dir,
		Fingerprint: testFP,
		Params:      exp.Quick(),
	})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	get := func(path string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, buf.Bytes()
	}

	if code, _, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, _, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz = %d", code)
	}
	if code, _, _ := get("/result?design=Alloy&workload=soplex"); code != 404 {
		t.Fatalf("result before submit = %d, want 404", code)
	}

	body, _ := json.Marshal(map[string]any{"units": []exp.UnitSpec{unit}})
	resp, err := http.Post(hs.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep = %d", resp.StatusCode)
	}
	s.Wait()

	code, hdr, raw := get("/result?design=Alloy&workload=soplex")
	if code != 200 || hdr.Get("X-Bear-Fingerprint") != testFP {
		t.Fatalf("fresh result: code=%d headers=%v", code, hdr)
	}
	var got stats.Run
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("served result differs:\n  want %+v\n  got  %+v", want, &got)
	}

	if code, _, _ := get("/result?design=BEAR&workload=libq"); code != 404 {
		t.Fatalf("another fingerprint's entry answered %d, want 404", code)
	}

	// The drain flips readyz to 503 while healthz stays 200, and still
	// serves no other fingerprint's entry.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz during drain = %d, want 200", code)
	}
	if code, _, _ := get("/readyz"); code != 503 {
		t.Fatalf("readyz during drain = %d, want 503", code)
	}
	if code, _, _ := get("/result?design=BEAR&workload=libq"); code != 404 {
		t.Fatalf("draining server answered %d for another fingerprint's entry, want 404", code)
	}
	resp, err = http.Post(hs.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain = %d, want 503", resp.StatusCode)
	}
}

// TestDrainCheckpointsQueuedUnits drains a server whose pool never
// started: every queued unit must land in the resume manifest, sorted and
// readable by ReadCheckpoint.
func TestDrainCheckpointsQueuedUnits(t *testing.T) {
	st, dir := openTestStore(t, testFP)
	s := New(Config{
		WorkerCmd:   []string{"/bin/false"},
		Store:       st,
		StoreDir:    dir,
		Fingerprint: testFP,
		Params:      exp.Quick(),
	})
	units := []exp.UnitSpec{
		{Design: "BEAR", Workload: "libq"},
		{Design: "Alloy", Workload: "soplex"},
		{Design: "Alloy", Workload: "MIX1"},
	}
	if n, err := s.Submit(units); err != nil || n != 3 {
		t.Fatalf("Submit = (%d, %v)", n, err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	left, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 3 {
		t.Fatalf("checkpoint holds %d units, want 3", len(left))
	}
	p := s.Progress()
	if p.Interrupted != 3 {
		t.Fatalf("progress = %+v, want 3 interrupted", p)
	}
	// Stable order: sorted by unit key, so drain manifests diff cleanly.
	again := New(Config{WorkerCmd: []string{"/bin/false"}, Store: st, StoreDir: t.TempDir(),
		Fingerprint: testFP, Params: exp.Quick()})
	if n, err := again.Submit(left); err != nil || n != 3 {
		t.Fatalf("resubmitting checkpoint = (%d, %v)", n, err)
	}
	if _, err := ReadCheckpoint(t.TempDir()); err != nil {
		t.Fatalf("missing manifest should be a clean no-op: %v", err)
	}
}
