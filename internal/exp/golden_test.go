package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden outputs under testdata/")

// goldenIDs are the experiments pinned byte-for-byte. They cover every L4
// design flow the refactors touch: fig12 (Alloy/BEAR/BW-Opt speedups over
// rate + mix workloads), fig13 (the six-way bloat breakdown for five
// schemes), tab4 (hit-rate and latency aggregates), xgran (the
// page-grained Banshee/TicToc designs on the granularity axis), fig16
// (the on-chip-tag TIS and Sector-Cache baselines beside Alloy and BEAR)
// and abl-dip (DIP insertion over the LH and TIS tag stores).
var goldenIDs = []string{"fig12", "fig13", "tab4", "xgran", "fig16", "abl-dip"}

// TestGoldenOutputs diffs experiment output byte-for-byte against the
// committed goldens. Any change to simulation behaviour — even a reordering
// of two same-cycle DRAM commands — shows up here. Regenerate deliberately
// with:
//
//	go test ./internal/exp -run TestGoldenOutputs -update
//
// The run executes with the robustness features enabled — an attached
// result store and the invariant watchdog (-check) — so byte-identity
// against the committed goldens also proves those features never perturb
// results. A second, store-backed pass then regenerates every artifact
// without executing a single simulation, pinning the resume path.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take ~a minute; skipped with -short")
	}
	p := Quick()
	p.Watchdog.Check = true
	store, err := OpenStore(t.TempDir(), p.Fingerprint("golden"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	r.Store = store
	for _, id := range goldenIDs {
		e, err := ByID(id)
		if err != nil {
			t.Fatalf("ByID(%q): %v", id, err)
		}
		var buf bytes.Buffer
		if err := e.Run(p, &buf, r); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		path := filepath.Join("testdata", id+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatalf("write %s: %v", path, err)
			}
			t.Logf("wrote %s (%d bytes)", path, buf.Len())
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s (regenerate with -update): %v", path, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: output differs from %s\n%s", id, path, firstDiff(want, buf.Bytes()))
		}
	}
	if fs := r.Failures(); len(fs) != 0 {
		t.Fatalf("golden run recorded failures: %+v", fs)
	}
	if *updateGolden {
		return
	}

	// Resume pass: a fresh runner over the populated store must regenerate
	// every artifact byte-identically with zero simulations executed.
	r2 := NewRunner(p)
	r2.Store = store
	for _, id := range goldenIDs {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(p, &buf, r2); err != nil {
			t.Fatalf("%s (restored): %v", id, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: store-restored output differs from golden\n%s", id, firstDiff(want, buf.Bytes()))
		}
	}
	if n := r2.Count(); n != 0 {
		t.Errorf("store-backed rerun executed %d simulations, want 0", n)
	}
	if r2.Restored() == 0 {
		t.Error("store-backed rerun restored nothing")
	}
}

// firstDiff renders the first differing line of got vs want for a readable
// failure message.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
