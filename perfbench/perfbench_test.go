package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"bear/internal/trace"
)

// bearbenchBin is the worker binary TestMain builds for the serve path.
var bearbenchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bearbenchBin = filepath.Join(dir, "bearbench")
	// -buildvcs=false pins the worker's fingerprint to "dev", as run.sh does.
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bearbenchBin, "bear/cmd/bearbench")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building bearbench: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny returns a copy of w with tiny instruction budgets, and options for a
// run with no measured phase beyond its minimum.
func tiny(t *testing.T, w workload) (workload, options) {
	w.warm, w.meas = 5_000, 10_000
	return w, options{seed: 2, bearbench: bearbenchBin, workdir: t.TempDir(), wrap: forwardPrewarm}
}

// declared returns the units BENCHMARK.json declares for the untraced and
// the traced run's metrics, by metric name.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ds []decl) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	return units(spec.EndToEnd), units(spec.PerLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs every workload at tiny budgets,
// untraced and traced, and checks that each run passes its output checks and
// emits exactly the metrics BENCHMARK.json declares, in their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				w, o := tiny(t, w)
				res, err := run(w, o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %q, BENCHMARK.json declares %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestDroppedPrewarmerFailsDigestCheck shows the digest check can fail: a
// Source wrapper that hides trace.Prewarmer makes Sim.prewarm skip the L4
// warm-up, so the traced results no longer match the RunUnit reference.
func TestDroppedPrewarmerFailsDigestCheck(t *testing.T) {
	w, o := tiny(t, workloads()[0])
	o.wrap = func(s *sourceTap) trace.Source { return s }
	res, err := run(w, o, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("traced run without Prewarmer passed its checks: %+v", res)
	}
}
