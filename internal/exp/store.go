package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bear/internal/faultpoint"
	"bear/internal/stats"
)

// Store is a crash-safe on-disk result cache consulted before simulating.
// Each completed unit is written to its own file atomically (write to a
// temporary file, then rename), so a run killed mid-sweep leaves behind
// only whole entries; re-running with the same store resumes from where
// the crash left off and re-simulates only the missing units.
//
// Every entry embeds the store fingerprint (result-affecting Params plus
// the caller's build identity — see Params.Fingerprint) and a checksum of
// the result payload. Load treats any structural damage — corrupted JSON,
// wrong key, bad checksum — as a miss and deletes the entry, so torn or
// edited files can degrade a resume into extra work but never into wrong
// results. Entries whose fingerprint merely mismatches are misses too but
// stay on disk: they are valid results of another era, which LoadStale
// serves (labelled) when bearserve degrades under a broken worker pool.
type Store struct {
	dir         string
	fingerprint string

	mu        sync.Mutex
	hits      int
	discarded int
	saveErrs  int
}

const storeVersion = 1

// envelope is the on-disk entry format.
type envelope struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key"`
	Checksum    string          `json:"checksum"` // sha256 of Result
	Result      json.RawMessage `json:"result"`
}

// OpenStore opens (creating if needed) a result store rooted at dir whose
// entries are valid only under the given fingerprint.
func OpenStore(dir, fingerprint string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: opening result store: %w", err)
	}
	return &Store{dir: dir, fingerprint: fingerprint}, nil
}

// path maps a unit key to its entry file. Keys are hashed so file names
// stay short and filesystem-safe regardless of what the key contains.
func (st *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:8])+".json")
}

func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Load returns the stored result for key, or ok=false on a miss. Invalid
// entries (corruption, stale fingerprint, checksum mismatch) are deleted
// and reported as misses.
func (st *Store) Load(key string) (*stats.Run, bool) {
	res, fp, ok := st.load(key)
	if !ok || fp != st.fingerprint {
		return nil, false
	}
	st.mu.Lock()
	st.hits++
	st.mu.Unlock()
	return res, true
}

// LoadStale returns a structurally valid entry for key even when its
// fingerprint does not match the store's — the graceful-degradation escape
// bearserve uses to serve memoized results while its worker pool is
// saturated or broken. The payload is still checksum-verified against the
// entry's own fingerprint era, so a stale result is old, never corrupt.
// The entry's fingerprint is returned so callers can label the staleness.
func (st *Store) LoadStale(key string) (*stats.Run, string, bool) {
	return st.load(key)
}

// load reads and structurally validates the entry for key: parseable
// envelope, current version, matching key, checksum over the payload.
// Fingerprint policy is the caller's. Structurally invalid entries are
// deleted and reported as misses; fingerprint-mismatched ones are kept
// (LoadStale serves them, and a later run under their fingerprint still
// can).
func (st *Store) load(key string) (*stats.Run, string, bool) {
	p := st.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, "", false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		st.discard(p)
		return nil, "", false
	}
	// The checksum covers the compact payload, so canonicalise before
	// comparing: an entry that was pretty-printed in transit is still
	// valid, while any semantic edit is not.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Result); err != nil {
		st.discard(p)
		return nil, "", false
	}
	if env.Version != storeVersion || env.Key != key ||
		env.Checksum != checksum(compact.Bytes()) {
		st.discard(p)
		return nil, "", false
	}
	var res stats.Run
	if err := json.Unmarshal(env.Result, &res); err != nil {
		st.discard(p)
		return nil, "", false
	}
	return &res, env.Fingerprint, true
}

func (st *Store) discard(path string) {
	os.Remove(path)
	st.mu.Lock()
	st.discarded++
	st.mu.Unlock()
}

// encodeEnvelope renders the checksummed on-disk entry for (key, res)
// under the given fingerprint.
func encodeEnvelope(fingerprint, key string, res *stats.Run) ([]byte, error) {
	resJSON, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	env := envelope{
		Version:     storeVersion,
		Fingerprint: fingerprint,
		Key:         key,
		Checksum:    checksum(resJSON),
		Result:      resJSON,
	}
	return json.Marshal(&env)
}

// EncodeEnvelope renders the store's wire/disk entry format for a result.
// Worker subprocesses (bearbench -worker) use it to hand completed units
// back to bearserve in exactly the bytes the server's Store would persist,
// so the supervisor can checksum-verify the frame before trusting it.
func EncodeEnvelope(fingerprint, key string, res *stats.Run) ([]byte, error) {
	return encodeEnvelope(fingerprint, key, res)
}

// Save persists a completed result. Failures are best-effort: a store
// that cannot be written costs future resumes, not current results, so
// errors are counted (SaveErrors) rather than propagated.
func (st *Store) Save(key string, res *stats.Run) {
	raw, err := encodeEnvelope(st.fingerprint, key, res)
	if err != nil {
		st.saveFailed()
		return
	}
	if err := st.writeEntry(key, raw); err != nil {
		st.saveFailed()
	}
}

// Ingest verifies an externally produced envelope (a worker's stdout
// frame) and persists it. Unlike Save it propagates errors: the caller is
// a supervisor deciding whether the unit succeeded, and a frame that does
// not verify — garbage bytes, a foreign fingerprint, a checksum mismatch —
// means it did not. Returns the unit key the envelope carries.
func (st *Store) Ingest(raw []byte) (string, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return "", fmt.Errorf("exp: ingest: undecodable envelope: %w", err)
	}
	if env.Version != storeVersion {
		return "", fmt.Errorf("exp: ingest: envelope version %d, want %d", env.Version, storeVersion)
	}
	if env.Fingerprint != st.fingerprint {
		return "", fmt.Errorf("exp: ingest: fingerprint %q does not match the store's", env.Fingerprint)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Result); err != nil {
		return "", fmt.Errorf("exp: ingest: unparseable payload: %w", err)
	}
	if env.Checksum != checksum(compact.Bytes()) {
		return "", fmt.Errorf("exp: ingest: checksum mismatch for %q", env.Key)
	}
	if err := st.writeEntry(env.Key, raw); err != nil {
		st.saveFailed()
		return "", fmt.Errorf("exp: ingest: persisting %q: %w", env.Key, err)
	}
	return env.Key, nil
}

// writeEntry atomically installs an encoded envelope: write a sibling
// temporary file, then rename into place, so a crash at any point leaves
// either the old entry or the new one, never a prefix.
//
// The faultpoint sites model the crash cases the atomic dance defends
// against, so the chaos suite can prove Load's rejection paths against
// real files: "store.save" can tear or corrupt the payload or fail the
// write like a full disk; "store.rename" can crash before the rename,
// stranding the temporary file.
func (st *Store) writeEntry(key string, raw []byte) error {
	switch faultpoint.Hit("store.save", key) {
	case faultpoint.ENOSPC:
		return fmt.Errorf("exp: injected ENOSPC writing %q", key)
	case faultpoint.TornWrite:
		raw = raw[:len(raw)/2]
	case faultpoint.CorruptChecksum:
		mangled := append([]byte(nil), raw...)
		mangled[len(mangled)/2] ^= 0x01
		raw = mangled
	}
	final := st.path(key)
	// Each write gets its own temporary file: concurrent saves of one key
	// must not rename each other's half-written files into place.
	f, err := os.CreateTemp(st.dir, filepath.Base(final)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(raw)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if faultpoint.Hit("store.rename", key) == faultpoint.KillWorker {
		// Crash mid-rename: the entry never lands, the tmp file stays.
		return fmt.Errorf("exp: injected crash before renaming %q", key)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func (st *Store) saveFailed() {
	st.mu.Lock()
	st.saveErrs++
	st.mu.Unlock()
}

// Hits reports how many units were restored from the store.
func (st *Store) Hits() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hits
}

// Discarded reports how many invalid entries were deleted.
func (st *Store) Discarded() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.discarded
}

// SaveErrors reports how many results could not be persisted.
func (st *Store) SaveErrors() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.saveErrs
}
