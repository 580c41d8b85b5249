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
// wrong key, bad checksum, a payload that is not a stats.Run — as a miss
// and deletes the entry, so torn or edited files can degrade a resume into
// extra work but never into wrong results. Entries whose fingerprint
// merely mismatches are misses too but stay on disk for a later run under
// that fingerprint; nothing serves them under another.
type Store struct {
	dir         string
	fingerprint string

	mu        sync.Mutex
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

// Load returns the stored result for key, or ok=false on a miss.
// Structurally invalid entries (see decodeEnvelope, plus a wrong key) are
// deleted and reported as misses. An entry with another fingerprint is a
// miss too but stays on disk: a later run under that fingerprint can still
// use it.
func (st *Store) Load(key string) (*stats.Run, bool) {
	p := st.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	env, res, err := decodeEnvelope(raw, st.fingerprint)
	if err != nil || env.Key != key {
		st.discard(p)
		return nil, false
	}
	return res, res != nil
}

// decodeEnvelope parses an entry and verifies its version and the checksum
// over its payload. The checksum covers the compact payload, so an entry
// that was pretty-printed in transit is still valid, while any semantic
// edit is not. Under the given fingerprint the payload must also be
// exactly a stats.Run: one that checksums but does not re-encode to itself
// (unknown, missing, duplicate or miscased fields) is not a result this
// code wrote, so it is refused rather than read as a partly zero run. An
// entry of another fingerprint may hold another build's stats.Run, so it
// is returned with a nil run.
func decodeEnvelope(raw []byte, fingerprint string) (envelope, *stats.Run, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return env, nil, fmt.Errorf("undecodable envelope: %w", err)
	}
	if env.Version != storeVersion {
		return env, nil, fmt.Errorf("envelope version %d, want %d", env.Version, storeVersion)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Result); err != nil {
		return env, nil, fmt.Errorf("unparseable payload: %w", err)
	}
	if env.Checksum != checksum(compact.Bytes()) {
		return env, nil, fmt.Errorf("checksum mismatch for %q", env.Key)
	}
	if env.Fingerprint != fingerprint {
		return env, nil, nil
	}
	var res stats.Run
	if err := json.Unmarshal(compact.Bytes(), &res); err != nil {
		return env, nil, fmt.Errorf("payload of %q is not a stats.Run: %w", env.Key, err)
	}
	if re, err := json.Marshal(&res); err != nil || !bytes.Equal(re, compact.Bytes()) {
		return env, nil, fmt.Errorf("payload of %q is not exactly a stats.Run", env.Key)
	}
	return env, &res, nil
}

func (st *Store) discard(path string) {
	os.Remove(path)
	st.mu.Lock()
	st.discarded++
	st.mu.Unlock()
}

// EncodeEnvelope renders the store's wire/disk entry format for a result.
// Worker subprocesses (bearbench -worker) use it to hand completed units
// back to bearserve in exactly the bytes the server's Store would persist,
// so the supervisor can checksum-verify the frame before trusting it.
func EncodeEnvelope(fingerprint, key string, res *stats.Run) ([]byte, error) {
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

// Save persists a completed result. Failures are best-effort: a store
// that cannot be written costs future resumes, not current results, so
// errors are counted (SaveErrors) rather than propagated.
func (st *Store) Save(key string, res *stats.Run) {
	raw, err := EncodeEnvelope(st.fingerprint, key, res)
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
// not verify — garbage bytes, a foreign fingerprint, a checksum mismatch,
// a payload that is not a stats.Run — means it did not. Returns the unit
// key the envelope carries.
func (st *Store) Ingest(raw []byte) (string, error) {
	env, res, err := decodeEnvelope(raw, st.fingerprint)
	if err != nil {
		return "", fmt.Errorf("exp: ingest: %w", err)
	}
	if res == nil {
		return "", fmt.Errorf("exp: ingest: fingerprint %q does not match the store's", env.Fingerprint)
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
