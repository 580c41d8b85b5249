package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreIngest drives the store's envelope decoder with arbitrary bytes
// through both of its callers: Ingest, which verifies a worker's frame,
// and Load, which reads an entry file. Neither may panic; every envelope Ingest accepts must load
// back to a stats.Run that re-encodes to the envelope's payload; and Load
// must never serve bytes that Ingest refuses. Seeds are a real tiny run's
// envelope, its torn, bit-flipped, re-indented and foreign-build copies,
// and a correctly checksummed envelope whose payload is not a stats.Run.
func FuzzStoreIngest(f *testing.F) {
	const fp = "fuzz-build"
	run, err := NewRunner(tinyParams()).Rate(specAlloy, "libq")
	if err != nil {
		f.Fatal(err)
	}
	raw, err := EncodeEnvelope(fp, "unit", run)
	if err != nil {
		f.Fatal(err)
	}
	foreign, err := EncodeEnvelope("other-build", "unit", run)
	if err != nil {
		f.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, raw, "", "  "); err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	for _, seed := range [][]byte{raw, raw[:len(raw)/2], flipped, indented.Bytes(), foreign,
		forgedEnvelope(fp, "unit"), []byte("garbage")} {
		f.Add(seed)
	}

	dir := f.TempDir()
	in, err := OpenStore(filepath.Join(dir, "ingest"), fp)
	if err != nil {
		f.Fatal(err)
	}
	ld, err := OpenStore(filepath.Join(dir, "load"), fp)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, ingestErr := in.Ingest(raw)
		if ingestErr == nil {
			res, ok := in.Load(key)
			if !ok {
				t.Fatalf("Ingest accepted an envelope for %q that Load refuses", key)
			}
			var env envelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("Ingest accepted an undecodable envelope: %v", err)
			}
			var payload bytes.Buffer
			if err := json.Compact(&payload, env.Result); err != nil {
				t.Fatal(err)
			}
			re, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, payload.Bytes()) {
				t.Fatalf("loaded run re-encodes to\n%s\nnot the ingested payload\n%s", re, payload.Bytes())
			}
		}

		// The same bytes as an entry file, under the key they name (an
		// undecodable envelope names the empty key).
		var env envelope
		_ = json.Unmarshal(raw, &env)
		if err := os.WriteFile(ld.path(env.Key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := ld.Load(env.Key); ok && ingestErr != nil {
			t.Fatalf("Load served an entry Ingest refuses: %v", ingestErr)
		}
	})
}
