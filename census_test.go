package bear

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work.golden")

// censusRun is one design's statistics from the census simulation, with
// the simulator's exact work counters over the whole run.
type censusRun struct {
	run                     *stats.Run
	requests, picks, priced uint64 // DRAM scheduler work, both DRAMs
	events                  uint64 // event-queue events executed
}

var census struct {
	once sync.Once
	runs []censusRun
	err  error
}

// censusRuns simulates rate mcf once per design at 1/1024 scale. mcf's
// stores and misses drive every L4 flow: fills, bypasses, writeback probes
// that hit and miss, DCP and NTC savings, and MAP-I mispredictions.
func censusRuns(t *testing.T) []censusRun {
	t.Helper()
	census.once.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 1024
		cfg.WarmInstr = 20_000
		cfg.MeasInstr = 50_000
		for _, d := range Designs() {
			cfg.Design = d
			wl, err := trace.Rate("mcf", cfg.Cores, cfg.Scale, cfg.Seed)
			if err != nil {
				census.err = err
				return
			}
			sim, err := hier.NewSim(cfg.internal(), wl, cfg.WarmInstr, cfg.MeasInstr)
			if err != nil {
				census.err = err
				return
			}
			r, err := sim.Run()
			if err != nil {
				census.err = fmt.Errorf("%s: %w", d, err)
				return
			}
			w := dramWork(sim)
			census.runs = append(census.runs, censusRun{
				run: r, requests: w.Requests, picks: w.Picks, priced: w.Priced,
				events: sim.Q.Executed(),
			})
		}
	})
	if census.err != nil {
		t.Fatal(census.err)
	}
	return census.runs
}

// leaf is one non-struct field of stats.Run, reached through its nested
// structs (L4, the histograms).
type leaf struct {
	name  string
	index []int // for reflect.Value.FieldByIndex
}

func leaves(t reflect.Type, prefix string, index []int) []leaf {
	var out []leaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(index[:len(index):len(index)], i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, prefix+f.Name+".", idx)...)
			continue
		}
		out = append(out, leaf{prefix + f.Name, idx})
	}
	return out
}

// elems returns the scalars the leaf holds in r: the field itself, or each
// element of an array or slice.
func (lf leaf) elems(r *stats.Run) []reflect.Value {
	v := reflect.ValueOf(r).Elem().FieldByIndex(lf.index)
	if k := v.Kind(); k != reflect.Array && k != reflect.Slice {
		return []reflect.Value{v}
	}
	out := make([]reflect.Value, v.Len())
	for i := range out {
		out[i] = v.Index(i)
	}
	return out
}

// perturb moves a scalar far enough that any consumer of it sees the
// change: a latency histogram bucket outweighs the rest, a sum moves its
// mean, a label no longer matches.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1<<20)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("stats.Run.%s: census cannot perturb a %s", name, v.Kind())
	}
}

// cloneRun copies r with fresh slice backing arrays, so perturbing the
// copy cannot reach r or a Result that aliases r's slices.
func cloneRun(r *stats.Run) *stats.Run {
	cp := *r
	v := reflect.ValueOf(&cp).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && !f.IsNil() {
			f.Set(reflect.AppendSlice(reflect.MakeSlice(f.Type(), 0, f.Len()), f))
		}
	}
	return &cp
}

// TestStatsCensus holds every leaf field of stats.Run to the contract that
// a collected counter reaches a result. Written: some design leaves it
// non-zero (any element, for an array or slice). Consumed: perturbing it in
// a copy of some design's run changes the *Result that ResultOf builds.
// A field that fails either is dead weight on the hot path or a statistic
// the public API silently drops; carry it into Result or delete it with
// its writers.
func TestStatsCensus(t *testing.T) {
	runs := censusRuns(t)
	for _, lf := range leaves(reflect.TypeOf(stats.Run{}), "", nil) {
		written, consumed := false, false
		for _, cr := range runs {
			orig := lf.elems(cr.run)
			for _, e := range orig {
				written = written || !e.IsZero()
			}
			base := ResultOf(cr.run)
			for i := 0; i < len(orig) && !consumed; i++ {
				cp := cloneRun(cr.run)
				perturb(t, lf.name, lf.elems(cp)[i])
				consumed = !reflect.DeepEqual(ResultOf(cp), base)
			}
		}
		if !written {
			t.Errorf("stats.Run.%s is never written: zero in every design's run", lf.name)
		}
		if !consumed {
			t.Errorf("stats.Run.%s is never consumed: perturbing it leaves ResultOf's Result unchanged", lf.name)
		}
	}
}

// TestWorkGolden pins the simulator's exact work per design — DRAM
// requests, scheduler picks and candidates priced, summed over both DRAMs,
// and events executed — so a change in how much work a run does fails
// here without running the benchmark. Regenerate deliberately with:
//
//	go test . -run TestWorkGolden -update
func TestWorkGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# design requests picks priced events (rate mcf, scale 1024)")
	for _, cr := range censusRuns(t) {
		fmt.Fprintf(&buf, "%s %d %d %d %d\n", cr.run.Design, cr.requests, cr.picks, cr.priced, cr.events)
	}
	path := filepath.Join("testdata", "work.golden")
	if *updateWork {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("work differs from %s:\ngot:\n%swant:\n%s", path, buf.Bytes(), want)
	}
}
