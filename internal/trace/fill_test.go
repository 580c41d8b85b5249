package trace

import (
	"bytes"
	"fmt"
	"testing"

	"bear/internal/rng"
)

// filler is a Source that can write a block of records in one call.
type filler interface{ Fill(ops []Op) }

// drawBlocks draws n records from f in blocks of random length 1..200.
func drawBlocks(f filler, n int, r *rng.Source) []Op {
	out := make([]Op, n)
	for rest := out; len(rest) > 0; {
		k := min(1+r.Intn(200), len(rest))
		f.Fill(rest[:k])
		rest = rest[k:]
	}
	return out
}

// sameStream fails t unless the n records drawn from a one Next at a time
// equal the n records drawn from b in random blocks. step runs after each
// Next.
func sameStream(t *testing.T, a Source, b filler, n int, seed uint64, step func()) {
	t.Helper()
	got := drawBlocks(b, n, rng.New(seed))
	var want Op
	for i := range got {
		a.Next(&want)
		step()
		if got[i] != want {
			t.Fatalf("record %d: Fill gave %+v, Next gave %+v", i, got[i], want)
		}
	}
}

// TestGenFillMatchesNext: a generator drawn in random blocks yields the
// stream it yields record by record, for Rate and MIX workloads across
// seeds and scales. The draws run past the 64-line recent ring's fill, and
// libq at 1/1024 scale (a 1024-line footprint walked sequentially) wraps
// its sequential cursor, so the state Fill carries in locals is written
// back across both.
func TestGenFillMatchesNext(t *testing.T) {
	const n = 20000
	type build func(cores, scale int, seed uint64) (Workload, error)
	rate := func(name string) build {
		return func(cores, scale int, seed uint64) (Workload, error) { return Rate(name, cores, scale, seed) }
	}
	mix := func(m int) build {
		return func(cores, scale int, seed uint64) (Workload, error) { return Mix(m, cores, scale, seed) }
	}
	workloads := []struct {
		name  string
		build build
	}{
		{"libq", rate("libq")}, {"mcf", rate("mcf")}, {"xalanc", rate("xalanc")},
		{"MIX1", mix(1)}, {"MIX8", mix(8)}, {"MIX20", mix(20)},
	}
	seqWrapped := false
	for _, w := range workloads {
		for _, scale := range []int{1, 64, 1024} {
			for _, seed := range []uint64{1, 7, 42} {
				t.Run(fmt.Sprintf("%s/scale%d/seed%d", w.name, scale, seed), func(t *testing.T) {
					ref, err := w.build(2, scale, seed)
					if err != nil {
						t.Fatal(err)
					}
					blk, _ := w.build(2, scale, seed)
					for c := range ref.Sources {
						a, b := ref.Sources[c].(*Gen), blk.Sources[c].(*Gen)
						seq := a.seqCursor
						sameStream(t, a, b, n, seed+uint64(c), func() {
							if a.seqCursor < seq {
								seqWrapped = true
							}
							seq = a.seqCursor
						})
						if a.recentPos == 0 || a.recentLen != len(a.recent) {
							t.Fatalf("core %d: recent ring not wrapped (len %d, pos %d)", c, a.recentLen, a.recentPos)
						}
						if *a != *b {
							t.Fatalf("core %d: generator state differs after equal streams", c)
						}
					}
				})
			}
		}
	}
	if !seqWrapped {
		t.Fatal("no generator wrapped its sequential cursor; the test misses that path")
	}
}

// TestFileTraceFillMatchesNext: a replayed file drawn in random blocks wraps
// exactly as record-by-record replay does, including files shorter than a
// block, where one Fill wraps several times.
func TestFileTraceFillMatchesNext(t *testing.T) {
	b, _ := ByName("gcc")
	for _, ops := range []uint64{1, 37, 300} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, NewGen(b, 0, 64, 3), ops); err != nil {
			t.Fatal(err)
		}
		ref, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		blk, _ := ReadTrace(bytes.NewReader(buf.Bytes()))
		sameStream(t, ref, blk, 5000, ops, func() {})
		if ref.pos != blk.pos {
			t.Fatalf("%d-op file: cursor %d after blocks, %d after records", ops, blk.pos, ref.pos)
		}
	}
}

// BenchmarkGenFill draws xalanc's stream in 64-record blocks, the core's
// block length; BenchmarkGenNext draws it one record at a time.
func BenchmarkGenFill(b *testing.B) {
	bench, _ := ByName("xalanc")
	g := NewGen(bench, 0, 1, 1)
	var ops [64]Op
	for i := 0; i < b.N; i += len(ops) {
		g.Fill(ops[:])
	}
}

func BenchmarkGenNext(b *testing.B) {
	bench, _ := ByName("xalanc")
	g := NewGen(bench, 0, 1, 1)
	var op Op
	for i := 0; i < b.N; i++ {
		g.Next(&op)
	}
}
