package dramcache

import (
	"testing"

	"bear/internal/config"
)

// maxLine bounds line addresses, as in the trace reader: a line is a 64-bit
// byte address >> 6.
const maxLine = 1 << 58

// FuzzTADSetIndex checks the TAD store's divide-free set index against
// line % sets for every set count, and for lines up to maxLine.
func FuzzTADSetIndex(f *testing.F) {
	sets := []uint64{1, 2, 3, 7, 28, 1 << 10, 1 << 20, 1<<57 + 1, 1 << 63, ^uint64(0)}
	for _, scale := range []int{1, 64, 256} {
		sets = append(sets, config.Default(scale).AlloySets())
	}
	for _, n := range sets {
		for _, line := range []uint64{0, 1, n - 1, n, n + 1, 2654435761, maxLine - 1} {
			f.Add(n, line)
		}
	}
	f.Fuzz(func(t *testing.T, sets, line uint64) {
		if sets == 0 {
			return
		}
		line %= maxLine
		if got, want := newSetIndex(sets).of(line), line%sets; got != want {
			t.Fatalf("set index of line %d over %d sets = %d, want %d", line, sets, got, want)
		}
	})
}
