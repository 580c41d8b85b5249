package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceRoundTrip(t *testing.T) {
	b, _ := ByName("soplex")
	gen := NewGen(b, 0, 64, 7)
	var buf bytes.Buffer
	const n = 5000
	if err := WriteTrace(&buf, gen, n); err != nil {
		t.Fatal(err)
	}
	ft, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Ops() != n {
		t.Fatalf("ops = %d, want %d", ft.Ops(), n)
	}
	// Replaying must reproduce the generator's stream exactly.
	ref := NewGen(b, 0, 64, 7)
	var a, c Op
	for i := 0; i < n; i++ {
		ref.Next(&a)
		ft.Next(&c)
		if a != c {
			t.Fatalf("op %d: recorded %+v, replayed %+v", i, a, c)
		}
	}
	// Wrap-around: op n equals op 0.
	ft.Next(&c)
	ft.Reset()
	var first Op
	ft.Next(&first)
	if c != first {
		t.Fatal("wrap-around did not restart the trace")
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	// Arbitrary op sequences over valid line addresses survive the
	// encoding; an odd seed plants one line at or above 2^58, which the
	// reader must reject.
	if err := quick.Check(func(raw []uint32, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		src := &sliceSource{}
		for i, v := range raw {
			src.ops = append(src.ops, Op{
				NonMem: v % 1000,
				Line:   uint64(v) * 2654435761 % maxLine,
				PC:     uint64(v % 4096),
				Store:  i%3 == 0,
			})
		}
		bad := seed&1 == 1
		if bad {
			src.ops[seed%uint64(len(raw))].Line = maxLine | seed>>6
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, src, uint64(len(raw))); err != nil {
			return false
		}
		ft, err := ReadTrace(&buf)
		if bad || err != nil {
			return bad && err != nil
		}
		for i := range raw {
			var op Op
			ft.Next(&op)
			if op != src.ops[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type sliceSource struct {
	ops []Op
	pos int
}

func (s *sliceSource) Next(op *Op) {
	*op = s.ops[s.pos%len(s.ops)]
	s.pos++
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("BEARTRC1"))); err == nil {
		t.Fatal("truncated header accepted")
	}
	// A header claiming the maximum 2^28 ops over an empty body must fail
	// on the missing first op, not reserve gigabytes for ops never read.
	if _, err := ReadTrace(bytes.NewReader([]byte("BEARTRC1\x80\x80\x80\x80\x01"))); err == nil {
		t.Fatal("op count beyond the body accepted")
	}
	one := func(nonMem uint64, line int64) []byte {
		b := append([]byte(fileMagic), 1)
		b = binary.AppendUvarint(b, nonMem)
		b = binary.AppendVarint(b, line)
		return append(b, 0, 0) // pc 0, flags 0
	}
	if _, err := ReadTrace(bytes.NewReader(one(math.MaxUint32, 1))); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	if _, err := ReadTrace(bytes.NewReader(one(math.MaxUint32+1, 1))); err == nil {
		t.Fatal("nonMem above uint32 accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(one(0, -1))); err == nil {
		t.Fatal("line 2^64-1 (the sram empty-way sentinel) accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(one(0, maxLine))); err == nil {
		t.Fatal("line 2^58 accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(one(0, maxLine-1))); err != nil {
		t.Fatalf("line 2^58-1 rejected: %v", err)
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace reader: it must return
// an error or a trace, never panic or exhaust memory, and any trace it
// accepts must survive a WriteTrace/ReadTrace round trip unchanged. The
// seed corpus is a generator recording plus the regression inputs under
// testdata/fuzz/FuzzReadTrace.
func FuzzReadTrace(f *testing.F) {
	b, _ := ByName("soplex")
	var seed bytes.Buffer
	if err := WriteTrace(&seed, NewGen(b, 0, 64, 7), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, ft, uint64(ft.Ops())); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if !slices.Equal(ft.ops, again.ops) {
			t.Fatal("round trip changed the ops")
		}
	})
}

func TestTraceFileIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.trc")
	b, _ := ByName("wrf")
	if err := SaveTraceFile(path, NewGen(b, 0, 64, 1), 1000); err != nil {
		t.Fatal(err)
	}
	ft, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Ops() != 1000 {
		t.Fatalf("ops = %d", ft.Ops())
	}
}

func TestFromFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for c := 0; c < 3; c++ {
		b, _ := ByName("gcc")
		p := filepath.Join(dir, "core"+strings.Repeat("x", c)+".trc")
		if err := SaveTraceFile(p, NewGen(b, c, 64, 1), 500); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	w, err := FromFiles("gcc-files", paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 3 {
		t.Fatalf("sources = %d", len(w.Sources))
	}
	if _, err := FromFiles("none", nil); err == nil {
		t.Fatal("empty path list accepted")
	}
}
