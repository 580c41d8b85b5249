// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points on one named workload, checks that every
// simulated output is correct, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload mcf-bear --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate traced
// run that prints the per-layer breakdown. README.md explains both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bear/internal/exp"
	"bear/internal/trace"
)

// workload is one named benchmark input: the sweep units it simulates and
// the geometry and per-core instruction budgets it simulates them at.
type workload struct {
	name       string
	units      []exp.UnitSpec
	scale      int
	warm, meas uint64
	// sweep times the serve path instead of direct simulations: every
	// unit goes through an in-process serve.Server and its workers.
	sweep bool
}

// workloads lists the benchmark's workloads. BENCHMARK.json and README.md
// record why each was chosen and which layers it loads.
func workloads() []workload {
	var sweep []exp.UnitSpec
	for _, bench := range []string{"mcf", "xalanc"} {
		for _, d := range exp.UnitDesignNames() {
			sweep = append(sweep, exp.UnitSpec{Design: d, Workload: bench})
		}
	}
	return []workload{
		{name: "mcf-bear", units: []exp.UnitSpec{{Design: "BEAR", Workload: "mcf"}},
			scale: 64, warm: 100_000, meas: 200_000},
		{name: "lbm-alloy", units: []exp.UnitSpec{{Design: "Alloy", Workload: "lbm"}},
			scale: 64, warm: 100_000, meas: 400_000},
		{name: "xalanc-paper", units: []exp.UnitSpec{{Design: "BEAR", Workload: "xalanc"}},
			scale: 1, warm: 200_000, meas: 2_000_000},
		{name: "sweep-serve", units: sweep, scale: exp.Quick().Scale,
			warm: 25_000, meas: 50_000, sweep: true},
	}
}

// options are the settings of one benchmark invocation.
type options struct {
	seed      uint64        // simulator seed: the --seed argument plus one
	seconds   time.Duration // length of the measured phase
	bearbench string        // worker binary the serve path spawns
	workdir   string        // scratch directory for result stores
	// wrap builds the traced run's trace.Source around a tap; tests swap
	// in a wrapper that drops trace.Prewarmer.
	wrap func(*sourceTap) trace.Source
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = flag.Uint64("seed", 0, "input seed; seed n simulates with simulator seed n+1, since the CLIs read seed 0 as the default")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced mode, which prints the per-layer metrics")
		bin     = flag.String("bearbench", "bearbench", "bearbench binary the serve workers run")
		workdir = flag.String("workdir", os.TempDir(), "scratch directory for temporary result stores")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	o := options{
		seed:      *seed + 1,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		bearbench: *bin,
		workdir:   *workdir,
		wrap:      forwardPrewarm,
	}
	res, err := run(*w, o, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs one workload and tallies its operations: every simulation,
// in-process unit and served unit is one attempt, and every error or failed
// output check is one failure.
type bench struct {
	w         workload
	o         options
	attempted int
	failed    int
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", b.w.name, fmt.Sprintf(format, args...))
}

// run executes one benchmark run. An error means the run could not be
// measured at all; failed operations are counted in the result instead.
func run(w workload, o options, traced bool) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{w: w, o: o}
	var m map[string]metric
	var err error
	switch {
	case traced:
		m, err = b.traced()
	case w.sweep:
		m, err = b.serveRun()
	default:
		m, err = b.simRun()
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
