// Package worker is the worker side of bearserve's protocol: the body of a
// `bearbench -worker` process and the frames it exchanges with the
// supervisor in internal/serve.
//
// It imports the simulator stack (exp) and the fault-injection registry
// and nothing of the control plane, so the worker binary links only the
// simulator stack: no net/http, net or crypto/tls. That cuts what a spawn
// costs up to its Hello frame by about 40% (see ARCHITECTURE.md, "Failure
// model"), and every sweep start, worker crash and blown deadline pays for
// a spawn. A test in this package holds the rule against
// `go list -deps bear/cmd/bearbench`.
//
// Worker protocol (line-delimited JSON over stdin/stdout):
//
//	worker → server   Hello{fingerprint}            once, at startup
//	server → worker   WorkRequest{unit, attempt}    one per scheduled unit
//	worker → server   WorkReply{ok, envelope|error} one per request
//
// A reply's Envelope is exactly the exp.Store entry the worker would have
// persisted (exp.EncodeEnvelope), so the server checksum-verifies the
// frame with Store.Ingest before trusting it; a worker that emits garbage,
// dies, or hangs past its deadline fails only that unit's attempt.
package worker

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"bear/internal/exp"
	"bear/internal/faultpoint"
)

// Hello is the worker's first stdout line: its store fingerprint, which
// must match the server's exactly — a worker built from different code or
// launched with different parameters would poison the result store.
type Hello struct {
	Hello       bool   `json:"hello"`
	Fingerprint string `json:"fingerprint"`
}

// WorkRequest asks a worker to simulate one unit. Attempt is the server's
// 1-based retry counter for the unit; workers feed it to faultpoint.HitAt
// so an injected fault pinned to attempt 1 does not re-fire in the
// replacement process serving attempt 2.
type WorkRequest struct {
	Unit    exp.UnitSpec `json:"unit"`
	Attempt int          `json:"attempt"`
}

// WorkReply reports one unit's outcome. Exactly one of Envelope (the
// exp.Store entry bytes for a completed simulation) or Error is set.
type WorkReply struct {
	OK       bool            `json:"ok"`
	Error    string          `json:"error,omitempty"`
	Envelope json.RawMessage `json:"envelope,omitempty"`
}

// WorkerLoop is the body of a `bearbench -worker` process: it announces
// its fingerprint, then serves WorkRequests from in until EOF, emitting
// one WorkReply line per request on out. Each unit simulates on the
// calling process's Runner, so a crash — real or injected — takes down
// exactly one unit's process while the server retries it elsewhere.
//
// The faultpoint site "worker.run" models the ways a worker can betray
// its supervisor, keyed by unit key with the externally supplied attempt
// index (see faultpoint.HitAt): KillWorker dies abruptly with no output,
// as the OOM killer would; Hang stops making progress until the server's
// deadline trips; GarbageStdout corrupts the protocol stream.
func WorkerLoop(r *exp.Runner, fingerprint string, in io.Reader, out io.Writer) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(Hello{Hello: true, Fingerprint: fingerprint}); err != nil {
		return fmt.Errorf("serve: worker hello: %w", err)
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var req WorkRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return fmt.Errorf("serve: worker: undecodable request %q: %w", sc.Text(), err)
		}
		key, err := req.Unit.Key()
		if err != nil {
			if err := enc.Encode(WorkReply{Error: err.Error()}); err != nil {
				return err
			}
			continue
		}
		switch faultpoint.HitAt("worker.run", key, req.Attempt) {
		case faultpoint.KillWorker:
			os.Exit(137)
		case faultpoint.Hang:
			// No progress until the supervisor's deadline kills us. A
			// sleeping goroutine holds a timer, so the runtime does not
			// call this a deadlock; a bare select{} would, since nothing
			// else in this binary keeps a goroutine or timer alive.
			for {
				time.Sleep(time.Hour)
			}
		case faultpoint.GarbageStdout:
			fmt.Fprintln(out, `}} not a protocol frame {{`)
			continue
		}
		reply := runOne(r, fingerprint, key, req.Unit)
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

func runOne(r *exp.Runner, fingerprint, key string, u exp.UnitSpec) WorkReply {
	res, err := r.RunUnit(u)
	if err != nil {
		return WorkReply{Error: err.Error()}
	}
	env, err := exp.EncodeEnvelope(fingerprint, key, res)
	if err != nil {
		return WorkReply{Error: fmt.Sprintf("encoding result envelope: %v", err)}
	}
	return WorkReply{OK: true, Envelope: env}
}
