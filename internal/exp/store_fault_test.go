package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bear/internal/config"
	"bear/internal/faultpoint"
	"bear/internal/stats"
	"bear/internal/trace"
)

// runForUnit derives a distinguishable result per key so cross-unit mixups
// would be caught, not just corruption.
func runForUnit(i int) *stats.Run {
	r := sampleRun()
	r.Cycles = uint64(1_000_000 + i)
	r.Workload = fmt.Sprintf("wl%d", i)
	return r
}

// TestStoreConcurrentWriters hammers one store from many goroutines —
// including two writers racing on the same key — and then verifies every
// load returns an intact, correctly attributed result. The store's
// write-to-temp-then-rename discipline must make racing writers
// last-writer-wins at whole-entry granularity, never a spliced file.
func TestStoreConcurrentWriters(t *testing.T) {
	st, err := OpenStore(t.TempDir(), "fp1")
	if err != nil {
		t.Fatal(err)
	}
	const units = 32
	var wg sync.WaitGroup
	for i := 0; i < units; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("unit-%d", i%16) // i>=16 re-writes a key
			st.Save(key, runForUnit(i%16))
		}()
	}
	wg.Wait()
	if st.SaveErrors() != 0 {
		t.Fatalf("SaveErrors = %d", st.SaveErrors())
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("unit-%d", i)
		got, ok := st.Load(key)
		if !ok {
			t.Fatalf("%s not loadable after concurrent writes", key)
		}
		if want := runForUnit(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s corrupted by concurrent writers:\n  want %+v\n  got  %+v", key, want, got)
		}
	}
}

// TestStoreInjectedWriteFaults arms each write-path fault in turn and pins
// the containment contract: the fault lands in the deterministic fired
// table, and a subsequent Load either serves the intact pre-fault entry or
// reports a miss — never corrupt data.
func TestStoreInjectedWriteFaults(t *testing.T) {
	cases := []struct {
		plan string
		// saveErr: the faulted Save must count a save error (the write
		// itself failed); otherwise the damage is latent until Load.
		saveErr bool
	}{
		{"enospc@store.save/unit-a", true},
		{"torn-write@store.save/unit-a", false},
		{"corrupt-checksum@store.save/unit-a", false},
		{"kill-worker@store.rename/unit-a", true},
	}
	for _, c := range cases {
		t.Run(c.plan, func(t *testing.T) {
			defer faultpoint.Disarm()
			st, err := OpenStore(t.TempDir(), "fp1")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := faultpoint.ParsePlan(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(plan)
			st.Save("unit-a", sampleRun())
			fired := faultpoint.Fired()
			if len(fired) != 1 || fired[0].String() != c.plan+"#1" {
				t.Fatalf("fired table = %v, want exactly %s#1", fired, c.plan)
			}
			if gotErr := st.SaveErrors() > 0; gotErr != c.saveErr {
				t.Errorf("SaveErrors = %d, want >0: %v", st.SaveErrors(), c.saveErr)
			}
			if res, ok := st.Load("unit-a"); ok {
				// Only a structurally intact entry may load; verify bytes.
				if !reflect.DeepEqual(res, sampleRun()) {
					t.Fatalf("Load served damaged data: %+v", res)
				}
			}
			// The retry (the fault fires exactly once) must repair the
			// entry and resume byte-identically.
			st.Save("unit-a", sampleRun())
			res, ok := st.Load("unit-a")
			if !ok || !reflect.DeepEqual(res, sampleRun()) {
				t.Fatalf("retry after %s did not restore the entry (ok=%v)", c.plan, ok)
			}
		})
	}
}

// TestStoreCrashMidRename proves the crash-window story end to end: a
// write that dies between the temp write and the rename leaves a .tmp
// stray and no entry; a resume neither trusts the stray nor trips over it,
// and after the re-run the store is byte-identical to one that never
// crashed.
func TestStoreCrashMidRename(t *testing.T) {
	defer faultpoint.Disarm()
	cleanDir, crashDir := t.TempDir(), t.TempDir()

	clean, err := OpenStore(cleanDir, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	clean.Save("unit-a", sampleRun())

	crashed, err := OpenStore(crashDir, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultpoint.ParsePlan("kill-worker@store.rename/unit-a")
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(plan)
	crashed.Save("unit-a", sampleRun())
	faultpoint.Disarm()

	if _, ok := crashed.Load("unit-a"); ok {
		t.Fatal("entry visible despite crash before rename")
	}
	tmps, err := filepath.Glob(filepath.Join(crashDir, "*.tmp"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("crash left %d stray temp files (err=%v), want 1", len(tmps), err)
	}

	// The resume path: a fresh store over the same dir re-runs the unit.
	resumed, err := OpenStore(crashDir, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resumed.Load("unit-a"); ok {
		t.Fatal("fresh store trusted the stray temp file")
	}
	resumed.Save("unit-a", sampleRun())

	// Byte-identical to the never-crashed store, stray temp aside.
	wantRaw, err := os.ReadFile(clean.path("unit-a"))
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, err := os.ReadFile(resumed.path("unit-a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Fatal("resumed entry differs from the uninjected run's bytes")
	}
}

// forgedEnvelope is a well-formed, correctly checksummed envelope whose
// payload is not a stats.Run.
func forgedEnvelope(fingerprint, key string) []byte {
	payload := []byte(`{"Bogus":1}`)
	raw, err := json.Marshal(&envelope{Version: storeVersion, Fingerprint: fingerprint, Key: key,
		Checksum: checksum(payload), Result: payload})
	if err != nil {
		panic(err)
	}
	return raw
}

// TestStoreIngest covers the worker-envelope path bearserve relies on:
// a frame produced by EncodeEnvelope round-trips through Ingest into a
// loadable entry, while damaged, foreign-fingerprint, forged-payload or
// garbage frames are refused with nothing persisted.
func TestStoreIngest(t *testing.T) {
	st, err := OpenStore(t.TempDir(), "fp1")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeEnvelope("fp1", "unit-a", sampleRun())
	if err != nil {
		t.Fatal(err)
	}
	key, err := st.Ingest(raw)
	if err != nil || key != "unit-a" {
		t.Fatalf("Ingest = (%q, %v)", key, err)
	}
	got, ok := st.Load("unit-a")
	if !ok || !reflect.DeepEqual(got, sampleRun()) {
		t.Fatalf("ingested entry not loadable intact (ok=%v)", ok)
	}

	bad := [][]byte{
		[]byte("garbage"),
		raw[:len(raw)/2],
		forgedEnvelope("fp1", "unit-b"),
	}
	if foreign, err := EncodeEnvelope("fp-other", "unit-b", sampleRun()); err == nil {
		bad = append(bad, foreign)
	}
	mangled := append([]byte(nil), raw...)
	for i := range mangled {
		// Flip a byte inside the result payload, not the envelope framing.
		if i > len(mangled)/2 && mangled[i] >= '1' && mangled[i] <= '8' {
			mangled[i]++
			break
		}
	}
	bad = append(bad, mangled)
	for i, frame := range bad {
		if key, err := st.Ingest(frame); err == nil {
			t.Errorf("bad frame %d ingested as %q", i, key)
		}
	}
	if _, ok := st.Load("unit-b"); ok {
		t.Error("refused frame persisted an entry")
	}
}

// TestUnitSpecKeysMatchRunner pins the interoperability contract: the key
// a UnitSpec computes is the key the Runner's own store writes, so a
// bearserve-populated store resumes a bearbench or bearsim sweep. Mix names
// take their prefix in any case and key by their number.
func TestUnitSpecKeysMatchRunner(t *testing.T) {
	for _, u := range []UnitSpec{
		{Design: "Alloy", Workload: "soplex"},
		{Design: "bear", Workload: "MIX3"},
		{Design: "bear", Workload: "mix03"},
		{Design: "BEAR", Workload: "soplex@single"},
		{Design: "lohhill", Workload: "libq", L4Channels: 2, L4Banks: 4, CapacityMB: 512},
	} {
		key, err := u.Key()
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		// Hold the only worker slot so the unit is memoised but never
		// simulated, read its memo key, then drain it.
		r := NewRunner(tinyParams())
		r.sem = make(chan struct{}, 1)
		r.sem <- struct{}{}
		f, err := r.UnitAsync(u)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		r.mu.Lock()
		var got []string
		for k := range r.memo {
			got = append(got, storeKey(k))
		}
		r.mu.Unlock()
		if len(got) != 1 || got[0] != key {
			t.Errorf("%s: Key=%q, runner uses %q", u, key, got)
		}
		r.Interrupt()
		<-r.sem
		if _, err := f.Wait(); err != ErrInterrupted {
			t.Errorf("%s: drained unit error = %v, want ErrInterrupted", u, err)
		}
	}
	for _, u := range []UnitSpec{
		{Design: "nope", Workload: "x"},
		{Design: "Alloy"},
		{Design: "Alloy", Workload: "MIX0"},
		{Design: "Alloy", Workload: "mixx"},
		{Design: "Alloy", Workload: "x", L4Channels: -1},
		{Design: "Alloy", Workload: "x", L4Banks: -1},
		{Design: "Alloy", Workload: "x", CapacityMB: -1},
	} {
		if err := u.Validate(); err == nil {
			t.Errorf("%+v accepted", u)
		}
		if _, err := u.Key(); err == nil {
			t.Errorf("%+v keyed", u)
		}
	}
}

// TestUnitSpecWire: a unit without overrides encodes to the same bytes as
// before the override fields existed, an override round-trips, and
// UnitDesignNames lists each design once despite the aliases.
func TestUnitSpecWire(t *testing.T) {
	b, err := json.Marshal(UnitSpec{Design: "Alloy", Workload: "soplex"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"design":"Alloy","workload":"soplex"}`; string(b) != want {
		t.Errorf("zero-override unit encodes to %s, want %s", b, want)
	}
	over := UnitSpec{Design: "LH", Workload: "mcf", L4Channels: 2, L4Banks: 4, CapacityMB: 512}
	b, err = json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	var back UnitSpec
	if err := json.Unmarshal(b, &back); err != nil || back != over {
		t.Errorf("override unit %s decodes to %+v (%v)", b, back, err)
	}
	names := UnitDesignNames()
	var want []string
	for d := config.NoL4; d <= config.TicToc; d++ {
		want = append(want, d.String())
	}
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("UnitDesignNames() = %v, want %v", names, want)
	}
}

// TestFilesAsync: a Runner replays a unit from recorded trace files, one
// per core, and refuses to when it has a Store, since the files' contents
// are not part of a store key.
func TestFilesAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation; skipped with -short")
	}
	p := tinyParams()
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for c := 0; c < config.Default(p.Scale).Core.Count; c++ {
		path := filepath.Join(dir, fmt.Sprintf("mcf.%d.trace", c))
		if err := trace.SaveTraceFile(path, trace.NewGen(b, c, p.Scale, p.Seed), 2*(p.Warm+p.Meas)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	u := UnitSpec{Design: "Alloy", Workload: "recorded"}

	stored := NewRunner(p)
	stored.Store, err = OpenStore(t.TempDir(), p.Fingerprint("test-build"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stored.FilesAsync(u, paths); err == nil {
		t.Fatal("FilesAsync accepted a Runner with a Store")
	}
	if n := stored.Count(); n != 0 {
		t.Fatalf("refused replay still simulated %d unit(s)", n)
	}

	r := NewRunner(p)
	f, err := r.FilesAsync(u, paths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != "Alloy" || res.Workload != "recorded" || len(res.CoreInstr) != len(paths) {
		t.Fatalf("replay = %s/%s on %d cores, want Alloy/recorded on %d", res.Design, res.Workload, len(res.CoreInstr), len(paths))
	}
	for c, n := range res.CoreInstr {
		if n != p.Meas {
			t.Fatalf("core %d retired %d measured instructions, want %d", c, n, p.Meas)
		}
	}

	f, err = NewRunner(p).FilesAsync(u, []string{filepath.Join(dir, "missing.trace")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); err == nil {
		t.Fatal("replay of a missing trace file succeeded")
	}
}

// TestRunnerInterrupt: in-flight and completed units persist; units
// requested after Interrupt fail fast with ErrInterrupted and stay out of
// the failure table.
func TestRunnerInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation; skipped with -short")
	}
	p := tinyParams()
	st, err := OpenStore(t.TempDir(), p.Fingerprint("test-build"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	r.Store = st
	if _, err := r.Rate(specAlloy, "soplex"); err != nil {
		t.Fatal(err)
	}
	r.Interrupt()
	if !r.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt")
	}
	if _, err := r.Rate(specAlloy, "libq"); err != ErrInterrupted {
		t.Fatalf("post-interrupt unit error = %v, want ErrInterrupted", err)
	}
	// The pre-interrupt unit is already memoised and still served.
	if _, err := r.Rate(specAlloy, "soplex"); err != nil {
		t.Fatalf("memoised unit unavailable after interrupt: %v", err)
	}
	if n := len(r.Failures()); n != 0 {
		t.Fatalf("interrupt polluted the failure table: %v", r.Failures())
	}
	// And it was checkpointed: a fresh runner restores it from the store.
	r2 := NewRunner(p)
	r2.Store = st
	if _, err := r2.Rate(specAlloy, "soplex"); err != nil {
		t.Fatal(err)
	}
	if r2.Restored() != 1 || r2.Count() != 0 {
		t.Fatalf("resume after interrupt: Restored=%d Count=%d, want 1/0", r2.Restored(), r2.Count())
	}

	// Units queued before Interrupt but still waiting for a worker slot
	// never start: at Parallel=1 at most the first one runs, and every
	// other one fails with ErrInterrupted, unmemoised and out of the
	// failure table.
	r3 := NewRunner(p)
	r3.Parallel = 1
	var fs []Future
	for _, wl := range []string{"soplex", "libq", "mcf", "lbm"} {
		fs = append(fs, r3.RateAsync(specAlloy, wl))
	}
	r3.Interrupt()
	ran := 0
	for i, f := range fs {
		switch _, err := f.Wait(); {
		case err == nil:
			ran++
		case err != ErrInterrupted:
			t.Errorf("queued unit %d: error %v, want ErrInterrupted", i, err)
		}
	}
	if r3.Count() > 1 || ran != r3.Count() {
		t.Errorf("after Interrupt at Parallel=1: Count=%d, %d units completed; want at most 1, equal", r3.Count(), ran)
	}
	if len(r3.memo) != ran {
		t.Errorf("%d units memoised, want only the %d that ran", len(r3.memo), ran)
	}
	if n := len(r3.Failures()); n != 0 {
		t.Errorf("drained units entered the failure table: %v", r3.Failures())
	}
}
