package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bear/internal/exp"
	"bear/internal/faultpoint"
)

// TestChaosSweepByteIdentical is the acceptance gate for the fault-injection
// work: a bearserve sweep run with faults armed — one worker killed mid-unit,
// one worker hung past its deadline, one torn store write — must complete
// with results byte-identical to an uninjected run, and each injected fault
// must appear exactly once in the deterministic failure/retry table.
//
// It builds the real bearbench binary and drives real worker subprocesses,
// so it is skipped under -short.
func TestChaosSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real simulator binaries")
	}
	bin := filepath.Join(t.TempDir(), "bearbench")
	// -buildvcs=false pins the build fingerprint to "dev" whether or not
	// the tree is dirty, keeping server and worker in agreement.
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "bear/cmd/bearbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building bearbench: %v\n%s", err, out)
	}
	fingerprint := exp.Quick().Fingerprint("dev")

	units := []exp.UnitSpec{
		{Design: "Alloy", Workload: "soplex"},
		{Design: "Alloy", Workload: "libq"},
		{Design: "BEAR", Workload: "soplex"},
	}
	keys := make([]string, len(units))
	for i, u := range units {
		k, err := u.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	// Worker-side plan: kill the unit-0 worker mid-unit on its first
	// attempt, hang the unit-1 worker past the deadline on its first
	// attempt. Server-side plan: tear unit-2's store write once. Keyed by
	// (site, unit key, attempt), the plan replays byte-identically no
	// matter how the pool interleaves.
	workerPlan := fmt.Sprintf("kill-worker@worker.run/%s;hang@worker.run/%s", keys[0], keys[1])
	serverPlan := fmt.Sprintf("torn-write@store.save/%s", keys[2])

	runSweep := func(t *testing.T, workerArgs []string, armed string) (map[string][]byte, Progress) {
		t.Helper()
		if armed != "" {
			plan, err := faultpoint.ParsePlan(armed)
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(plan)
			defer faultpoint.Disarm()
		}
		dir := t.TempDir()
		store, err := exp.OpenStore(dir, fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{
			WorkerCmd:    append([]string{bin, "-worker", "-quick"}, workerArgs...),
			Workers:      2,
			Store:        store,
			StoreDir:     dir,
			Fingerprint:  fingerprint,
			MaxAttempts:  3,
			BaseBackoff:  50 * time.Millisecond,
			MaxBackoff:   200 * time.Millisecond,
			UnitDeadline: 8 * time.Second,
			Params:       exp.Quick(),
		})
		s.Start()
		defer s.Drain()
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()

		body, _ := json.Marshal(map[string]any{"units": units})
		resp, err := http.Post(hs.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep = %d", resp.StatusCode)
		}
		s.Wait()

		results := map[string][]byte{}
		for _, u := range units {
			resp, err := http.Get(hs.URL + "/result?design=" + u.Design + "&workload=" + u.Workload)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("result %s = %d: %s", u, resp.StatusCode, buf.String())
			}
			results[u.String()] = buf.Bytes()
		}
		return results, s.Progress()
	}

	clean, cleanProg := runSweep(t, nil, "")
	if cleanProg.Done != 3 || cleanProg.Failed != 0 || cleanProg.Retries != 0 {
		t.Fatalf("clean run progress = %+v", cleanProg)
	}
	if len(cleanProg.Faults) != 0 {
		t.Fatalf("clean run recorded injected faults: %v", cleanProg.Faults)
	}

	injected, prog := runSweep(t, []string{"-faultplan", workerPlan}, serverPlan)

	// Every unit recovers: the sweep completes despite one killed worker,
	// one hang, and one torn write.
	if prog.Done != 3 || prog.Failed != 0 {
		t.Fatalf("injected run progress = %+v, want 3 done", prog)
	}
	if prog.Retries != 3 {
		t.Fatalf("injected run retries = %d, want exactly 3 (one per fault)", prog.Retries)
	}

	// Byte-identity: recovery must not perturb results.
	for _, u := range units {
		if !bytes.Equal(clean[u.String()], injected[u.String()]) {
			t.Errorf("%s: result bytes differ between clean and injected runs\nclean:    %s\ninjected: %s",
				u, clean[u.String()], injected[u.String()])
		}
	}

	// The failure/retry table attributes each fault to its unit, exactly
	// once, with the right failure classification.
	wantErr := map[string]string{
		keys[0]: "worker exited",          // kill-worker → process death
		keys[1]: "deadline",               // hang → watchdog deadline
		keys[2]: "read-back verification", // torn write → corrupt entry
	}
	seen := map[string]int{}
	for _, u := range prog.Units {
		key, err := exp.UnitSpec{Design: u.Design, Workload: u.Workload}.Key()
		if err != nil {
			t.Fatal(err)
		}
		want := wantErr[key]
		if len(u.Errors) != 1 || !strings.Contains(u.Errors[0], want) {
			t.Errorf("unit %s/%s: errors = %v, want one %q failure", u.Design, u.Workload, u.Errors, want)
		}
		if u.Attempts != 2 {
			t.Errorf("unit %s/%s: attempts = %d, want 2 (fault then recovery)", u.Design, u.Workload, u.Attempts)
		}
		seen[key]++
	}
	if len(seen) != 3 {
		t.Fatalf("progress covered %d units, want 3", len(seen))
	}

	// The server-side registry shows its torn write exactly once (the
	// worker-side faults fire in subprocesses, in their own registries).
	wantFault := serverPlan + "#1"
	if len(prog.Faults) != 1 || prog.Faults[0] != wantFault {
		t.Fatalf("server fault table = %v, want exactly [%s]", prog.Faults, wantFault)
	}
}
