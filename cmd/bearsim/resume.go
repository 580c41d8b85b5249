package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"bear"
)

// resultStore is bearsim's -resume cache: one checksummed JSON file per
// completed sweep unit, installed atomically (write a sibling temp file,
// then rename) so an interrupted or crashed sweep leaves only whole
// entries behind. It follows exp.Store's discipline — fingerprint over
// build identity, checksum over the payload, structural damage treated as
// a miss — but stores bearsim's public bear.Result, keyed by the full
// Config so any flag change (design, scale, geometry overrides) is a
// different unit.
type resultStore struct {
	dir         string
	fingerprint string
}

// resumeVersion names the stored bear.Result shape. A "dev" build
// (no VCS stamp) keeps one fingerprint across edits, so a change to Result's
// fields bumps this instead: an entry written without them is a miss, not a
// result with zeros where the new fields belong.
const resumeVersion = 2

type resumeEnvelope struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key"`
	Checksum    string          `json:"checksum"` // sha256 of Result
	Result      json.RawMessage `json:"result"`
}

func openResultStore(dir string) (*resultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("opening result store: %w", err)
	}
	return &resultStore{dir: dir, fingerprint: simFingerprint()}, nil
}

// unitKey renders the unit identity: every result-affecting Config field
// plus the workload. Check is scrubbed first — the watchdog never changes
// results, so it must not split the store.
func unitKey(cfg bear.Config, workload string) string {
	cfg.Check = false
	return fmt.Sprintf("%+v|%s", cfg, workload)
}

func (st *resultStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:8])+".json")
}

func resumeChecksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// load returns the stored result for key, or ok=false. Any damage —
// corrupt JSON, wrong key, stale fingerprint, checksum mismatch — is a
// miss: the unit re-simulates rather than trusting a doubtful entry.
func (st *resultStore) load(key string) (*bear.Result, bool) {
	raw, err := os.ReadFile(st.path(key))
	if err != nil {
		return nil, false
	}
	var env resumeEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, false
	}
	if env.Version != resumeVersion || env.Fingerprint != st.fingerprint ||
		env.Key != key || env.Checksum != resumeChecksum(env.Result) {
		return nil, false
	}
	var res bear.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// save persists a completed unit (best-effort: a failed save costs a
// future resume, not this run's output).
func (st *resultStore) save(key string, res *bear.Result) {
	resJSON, err := json.Marshal(res)
	if err != nil {
		return
	}
	raw, err := json.Marshal(&resumeEnvelope{
		Version:     resumeVersion,
		Fingerprint: st.fingerprint,
		Key:         key,
		Checksum:    resumeChecksum(resJSON),
		Result:      resJSON,
	})
	if err != nil {
		return
	}
	final := st.path(key)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
	}
}

// simFingerprint is the build identity guarding the store (results from a
// different code revision must not be trusted); same derivation as
// bearbench's buildFingerprint.
func simFingerprint() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return "dev"
}
