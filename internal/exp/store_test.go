package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"bear/internal/stats"
)

func sampleRun() *stats.Run {
	r := &stats.Run{
		Design:       "Alloy",
		Workload:     "soplex",
		Cycles:       123456789,
		Instructions: 400000,
		CoreInstr:    []uint64{50000, 50000},
		CoreIPC:      []float64{0.5179104, 1.25},
		L3Accesses:   9999,
		L3Misses:     1234,
		MemReadBytes: 1 << 30,
	}
	r.L4.ReadHits = 777
	r.L4.Bytes[0] = 4242
	return r
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir(), "fp1")
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRun()
	st.Save("unit-a", want)
	got, ok := st.Load("unit-a")
	if !ok {
		t.Fatal("stored entry not loadable")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n  want %+v\n  got  %+v", want, got)
	}
	if _, ok := st.Load("unit-b"); ok {
		t.Error("missing key reported as a hit")
	}
}

// TestStoreRejectsCorruption pins the safety property: a torn or edited
// entry is detected, deleted and treated as a miss — never served.
func TestStoreRejectsCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		mangle  func(raw []byte) []byte
		deleted bool
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }, true},
		{"not json", func(raw []byte) []byte { return []byte("garbage") }, true},
		{"payload edited", func(raw []byte) []byte {
			return bytes.Replace(raw, []byte("123456789"), []byte("123456780"), 1)
		}, true},
		{"payload not a run", func(raw []byte) []byte { return forgedEnvelope("fp1", "unit-a") }, true},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir, "fp1")
			if err != nil {
				t.Fatal(err)
			}
			st.Save("unit-a", sampleRun())
			path := st.path("unit-a")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Load("unit-a"); ok {
				t.Fatal("corrupted entry served as valid")
			}
			if st.Discarded() != 1 {
				t.Errorf("Discarded() = %d, want 1", st.Discarded())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupted entry not deleted")
			}
		})
	}
}

// TestStoreRejectsStaleFingerprint: entries written under a different
// code version or parameter set must not be trusted by Load, but they stay
// on disk for a later run under their own fingerprint.
func TestStoreRejectsStaleFingerprint(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, "fp-old")
	if err != nil {
		t.Fatal(err)
	}
	st1.Save("unit-a", sampleRun())
	st2, err := OpenStore(dir, "fp-new")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Load("unit-a"); ok {
		t.Fatal("stale-fingerprint entry served as valid")
	}
	if st2.Discarded() != 0 {
		t.Errorf("Discarded() = %d, want 0: stale entries stay on disk", st2.Discarded())
	}
	if _, ok := st1.Load("unit-a"); !ok {
		t.Fatal("entry no longer loads under its own fingerprint")
	}
}

func TestParamsFingerprint(t *testing.T) {
	p := tinyParams()
	base := p.Fingerprint("rev1")
	if base != p.Fingerprint("rev1") {
		t.Error("fingerprint not stable")
	}
	q := p
	q.Seed = 2
	if p.Fingerprint("rev1") == q.Fingerprint("rev1") {
		t.Error("seed change not reflected in fingerprint")
	}
	if p.Fingerprint("rev1") == p.Fingerprint("rev2") {
		t.Error("build identity not reflected in fingerprint")
	}
	// The watchdog never changes results, so it must not split the store.
	w := p
	w.Watchdog.Check = true
	if p.Fingerprint("rev1") != w.Fingerprint("rev1") {
		t.Error("watchdog settings must not change the fingerprint")
	}
}

// TestStoreResume is the crash-resume scenario end to end: a sweep
// populates the store, half the entries are deleted (simulating a crash
// part-way through), and the re-run must produce byte-identical output
// while re-simulating only the missing units.
func TestStoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("resume round trip runs 4 simulations; skipped with -short")
	}
	p := tinyParams()
	dir := t.TempDir()
	fp := p.Fingerprint("test-build")

	sweep := func() (string, *Runner) {
		st, err := OpenStore(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(p)
		r.Store = st
		var buf bytes.Buffer
		for _, s := range []spec{specAlloy, specBEAR} {
			for _, name := range []string{"soplex", "libq"} {
				res, err := r.Rate(s, name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s/%s cycles=%d ipc=%.6f bloat=%.6f\n",
					res.Design, res.Workload, res.Cycles, res.IPC(), res.L4.BloatFactor())
			}
		}
		return buf.String(), r
	}

	out1, r1 := sweep()
	if r1.Count() != 4 || r1.Restored() != 0 {
		t.Fatalf("first sweep: Count=%d Restored=%d, want 4/0", r1.Count(), r1.Restored())
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("store holds %d entries (err=%v), want 4", len(files), err)
	}
	sort.Strings(files)
	for i := 0; i < len(files); i += 2 {
		if err := os.Remove(files[i]); err != nil {
			t.Fatal(err)
		}
	}

	out2, r2 := sweep()
	if out2 != out1 {
		t.Errorf("resumed sweep output differs:\n--- full ---\n%s--- resumed ---\n%s", out1, out2)
	}
	if r2.Count() != 2 || r2.Restored() != 2 {
		t.Errorf("resumed sweep: Count=%d Restored=%d, want 2 re-simulated + 2 restored",
			r2.Count(), r2.Restored())
	}

	out3, r3 := sweep()
	if out3 != out1 {
		t.Errorf("fully-restored sweep output differs")
	}
	if r3.Count() != 0 || r3.Restored() != 4 {
		t.Errorf("fully-restored sweep: Count=%d Restored=%d, want 0 re-simulated + 4 restored",
			r3.Count(), r3.Restored())
	}
}
