package worker

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"bear/internal/exp"
)

const testFP = "test-fp"

// TestWorkerLoopProtocol exercises WorkerLoop's framing without running a
// simulation: hello first, an error reply for an invalid unit, clean EOF.
func TestWorkerLoopProtocol(t *testing.T) {
	in := strings.NewReader(`{"unit":{"design":"nope","workload":"x"},"attempt":1}` + "\n")
	var out bytes.Buffer
	r := exp.NewRunner(exp.Quick())
	if err := WorkerLoop(r, testFP, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("worker emitted %d frames, want hello + reply:\n%s", len(lines), out.String())
	}
	var hello Hello
	if err := json.Unmarshal([]byte(lines[0]), &hello); err != nil || !hello.Hello || hello.Fingerprint != testFP {
		t.Fatalf("hello frame %q (err %v)", lines[0], err)
	}
	var reply WorkReply
	if err := json.Unmarshal([]byte(lines[1]), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.OK || !strings.Contains(reply.Error, "unknown design") {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestBearbenchLinksNoNetworkStack holds the rule that the worker binary
// links only the simulator stack. Every bearserve sweep start, worker
// crash and blown deadline pays for a bearbench spawn, and linking
// net/http (through an import of internal/serve, say) nearly doubles
// what a spawn costs before its Hello frame.
func TestBearbenchLinksNoNetworkStack(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "bear/cmd/bearbench").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps bear/cmd/bearbench: %v\n%s", err, out)
	}
	banned := map[string]bool{"net/http": true, "net": true, "crypto/tls": true}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("bearbench links %s; the worker must link only the simulator stack", pkg)
		}
	}
}
