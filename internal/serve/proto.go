// Package serve is bearserve's control plane: a long-running HTTP daemon
// that schedules sweep units onto a supervised pool of worker subprocesses
// (bearbench -worker), so a simulator crash, watchdog trip or OOM kills
// one unit's process — never the server.
//
// The package follows the Banshee-style software/hardware split from the
// cross-paper notes: a thin, always-up control plane (this package) over
// replaceable, crash-prone execution units (worker processes running the
// fully determinism-linted simulation stack). Robustness machinery lives
// here and only here: per-unit wall-clock deadlines derived from
// instruction budgets, retry with exponential backoff and deterministic
// jitter (every failing unit gets exactly MaxAttempts tries), a read-back
// of each ingested result, and a SIGTERM drain that checkpoints progress
// into the resume store. Because everything under internal/serve is off the
// simulation path, the package is exempt from the determinism lint the
// sanctioned way (see cmd/simlint's repoConfig) — wall clocks, timers and
// goroutines are its job.
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
package serve

import (
	"encoding/json"

	"bear/internal/exp"
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
