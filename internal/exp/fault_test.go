package exp

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/fault"
	"bear/internal/hier"
	"bear/internal/trace"
)

// panicSource is a workload stub whose very first op panics, injecting a
// fault deep inside a worker's simulation.
type panicSource struct{}

func (panicSource) Next(op *trace.Op) {
	panic(fault.Invariantf("trace", "injected fault"))
}

func boomWorkload(cores int) func() (trace.Workload, error) {
	return func() (trace.Workload, error) {
		srcs := make([]trace.Source, cores)
		for i := range srcs {
			srcs[i] = panicSource{}
		}
		return trace.Workload{Name: "boom", Sources: srcs}, nil
	}
}

// TestRunnerSurvivesPanic pins the fault-isolation contract: a panicking
// unit fails its own future with a structured *SimError (unit identity +
// stack), the sweep's other units complete normally, and the failure is
// recorded for the failure table.
func TestRunnerSurvivesPanic(t *testing.T) {
	p := tinyParams()
	r := NewRunner(p)
	cores := config.Default(p.Scale).Core.Count

	good := r.RateAsync(specAlloy, "soplex")
	bad := Future{r.start(specAlloy, "boom", boomWorkload(cores))}

	if _, err := good.Wait(); err != nil {
		t.Fatalf("healthy unit failed alongside the faulty one: %v", err)
	}
	_, err := bad.Wait()
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("faulty unit returned %v, want *SimError", err)
	}
	if se.Workload != "boom" || se.Design != "Alloy" || se.Seed != p.Seed {
		t.Errorf("SimError identity wrong: %+v", se)
	}
	if !strings.Contains(se.Stack, "panicSource") {
		t.Errorf("SimError.Stack does not reach the panic site:\n%s", se.Stack)
	}
	// The typed panic value must stay classifiable through the recover.
	var inv *fault.Invariant
	if !errors.As(err, &inv) || inv.Component != "trace" {
		t.Errorf("cannot classify recovered panic as *fault.Invariant: %v", err)
	}

	fs := r.Failures()
	if len(fs) != 1 || fs[0].Workload != "boom" || fs[0].Design != "Alloy" {
		t.Fatalf("Failures() = %+v, want one entry for Alloy/boom", fs)
	}
	var buf bytes.Buffer
	r.WriteFailureTable(&buf)
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), "boom") {
		t.Errorf("failure table missing the failed unit:\n%s", buf.String())
	}
}

// TestFailedUnitReturnsQueue pins the event-queue pool across unit
// failures: a unit that fails, by an error from hier.NewSimQueue or by a
// panic inside the run, still hands its queue back, and the next unit on
// the worker reuses it and gets the result a fresh runner gets.
func TestFailedUnitReturnsQueue(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under the race detector")
	}
	// A GC empties the pool, and a Put on one P is not always seen by a
	// Get on another.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	p := tinyParams()
	want, err := NewRunner(p).Rate(specAlloy, "soplex")
	if err != nil {
		t.Fatal(err)
	}
	cores := config.Default(p.Scale).Core.Count
	for _, bad := range []struct {
		name string
		mk   func() (trace.Workload, error)
	}{
		{"empty", func() (trace.Workload, error) { return trace.Workload{Name: "empty"}, nil }},
		{"boom", boomWorkload(cores)},
	} {
		r := NewRunner(p)
		r.Parallel = 1
		q := new(event.Queue)
		r.queues.Put(q)
		if _, err := (Future{r.start(specAlloy, bad.name, bad.mk)}).Wait(); err == nil {
			t.Fatalf("%s: unit succeeded, want a failure", bad.name)
		}
		if got, _ := r.queues.Get().(*event.Queue); got != q {
			t.Fatalf("%s: the failed unit did not return its queue", bad.name)
		}
		r.queues.Put(q)
		res, err := r.Rate(specAlloy, "soplex")
		if err != nil {
			t.Fatalf("after %s: %v", bad.name, err)
		}
		if got, _ := r.queues.Get().(*event.Queue); got != q {
			t.Fatalf("after %s: the next unit did not reuse the queue", bad.name)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("after %s: the unit on the reused queue differs from a fresh runner's", bad.name)
		}
	}
}

// TestRunnerWatchdogFailure drives a watchdog trip through the Runner: the
// error must surface from Future.Wait still typed, and land in the failure
// table like any other unit failure.
func TestRunnerWatchdogFailure(t *testing.T) {
	p := tinyParams()
	p.Watchdog = hier.Watchdog{MaxCycles: 1000, CheckEvery: 64}
	r := NewRunner(p)
	_, err := r.Rate(specAlloy, "soplex")
	var wd *fault.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("Rate = %v, want *fault.WatchdogError", err)
	}
	if wd.Kind != fault.WatchdogCycleBudget {
		t.Errorf("Kind = %v, want %v", wd.Kind, fault.WatchdogCycleBudget)
	}
	if fs := r.Failures(); len(fs) != 1 {
		t.Errorf("Failures() = %+v, want the watchdog trip recorded", fs)
	}
}

// TestCheckThroughRunner runs a unit with the invariant epochs enabled via
// Params and compares against a plain run: results must be identical.
func TestCheckThroughRunner(t *testing.T) {
	p := tinyParams()
	plain, err := NewRunner(p).Rate(specBEAR, "soplex")
	if err != nil {
		t.Fatal(err)
	}
	p.Watchdog.Check = true
	checked, err := NewRunner(p).Rate(specBEAR, "soplex")
	if err != nil {
		t.Fatalf("healthy run tripped -check: %v", err)
	}
	if plain.Cycles != checked.Cycles || plain.Instructions != checked.Instructions {
		t.Errorf("-check changed results: %d/%d cycles, %d/%d instructions",
			plain.Cycles, checked.Cycles, plain.Instructions, checked.Instructions)
	}
}
