package dramcache

import (
	"cmp"
	"math/bits"
	"slices"

	"bear/internal/trace"
)

// Prewarm implements Cache. The tag store picks the path: the
// direct-mapped TAD store writes whole run pieces at once, and every other
// store, whose replacement state depends on the install order, takes the
// lines one position at a time.
func (c *Controller) Prewarm(cores [][]trace.Run, limit uint64) {
	switch t := c.tags.(type) {
	case nil:
		// No L4: there is no cache to warm.
	case *tadTags:
		t.prewarm(cores, limit)
	default:
		installInterleaved(t, warmPrefix(cores, limit))
	}
}

// warmPrefix cuts each core's runs to their first limit lines.
func warmPrefix(cores [][]trace.Run, limit uint64) [][]trace.Run {
	warm := make([][]trace.Run, len(cores))
	for i, runs := range cores {
		left := limit
		for _, r := range runs {
			if left == 0 {
				break
			}
			r.Len = min(r.Len, left)
			warm[i] = append(warm[i], r)
			left -= r.Len
		}
	}
	return warm
}

// reserve gives a code to every tag the cores' runs span, in core, run and
// tag order, making room for the new ones at once. Given the whole
// footprint, it leaves the dictionary as the run will find it, so no
// later install adds a code or widens the slots.
func (t *tadTags) reserve(cores [][]trace.Run) {
	var qs []uint64
	fresh := 0
	for _, runs := range cores {
		for _, r := range runs {
			if r.Len == 0 {
				continue
			}
			lo, _ := t.sets.split(r.First)
			hi, _ := t.sets.split(r.First + r.Len - 1)
			for q := lo; q <= hi; q++ {
				if slices.Contains(qs, q) {
					continue
				}
				qs = append(qs, q)
				if _, ok := t.codes[q]; !ok {
					fresh++
				}
			}
		}
	}
	if fresh > 0 && uint64(len(t.tags)+fresh) > t.dirty {
		// widen may drop the dead code of one of qs, which then takes
		// another: code widens once more if that leaves no room.
		t.widen(uint64(fresh))
	}
	for _, q := range qs {
		t.code(q)
	}
}

// tadPiece is the part of a warm run that lands on the consecutive sets
// set, set+1, ..., set+n-1 without wrapping, so every line in it has the
// same quotient tag and the piece writes the tag's one code to each. If
// the piece starts at warm position p0 of its core, it writes set s at
// position s-c, where c = set-p0. late is sets-c, which keeps the order
// unsigned: of two pieces sharing a set, the one with the larger late
// writes it at the later position.
type tadPiece struct {
	late, set, n, tag uint64
	core              int
}

// prewarm reserves the codes of every tag the cores' runs span, then
// leaves the slots exactly as Install would, fed the first limit lines of
// each core's runs position by position, cores in index order. Install
// adds no code then, since each tag has one. A set's last writer there is
// the covering piece with the largest late and, among equal late, the
// highest core; two pieces of one core with equal late never share a set,
// since a core has one line per position. So the pieces are filled in
// ascending (late, core) order, each by fillSlots, and the last fill of
// every set is its last writer.
func (t *tadTags) prewarm(cores [][]trace.Run, limit uint64) {
	t.reserve(cores)
	sets := t.sets.n
	var pieces []tadPiece
	for core, runs := range warmPrefix(cores, limit) {
		pos := uint64(0)
		for _, r := range runs {
			for line, end := r.First, r.First+r.Len; line < end; {
				q, set := t.sets.split(line)
				n := min(end-line, sets-set)
				pieces = append(pieces, tadPiece{late: pos + sets - set, set: set, n: n, tag: q, core: core})
				line, pos = line+n, pos+n
			}
		}
	}
	slices.SortFunc(pieces, func(a, b tadPiece) int {
		return cmp.Or(cmp.Compare(a.late, b.late), cmp.Compare(a.core, b.core))
	})
	slots, width := t.slots, t.width
	for _, p := range pieces {
		fillSlots(slots, width, p.set, p.n, t.codes[p.tag])
	}
}

// fillSlots writes v to the n slots from set on, as n putSlots would. The
// bits of equal slots repeat every 8/gcd(width, 8) slots, a whole number of
// bytes, and from a set whose slot starts on a byte boundary they repeat
// byte for byte. So fillSlots writes the slots one by one up to one period
// past the first such set, doubles that period's bytes out with copy over
// every whole period that follows, and writes the tail one by one.
func fillSlots(slots []byte, width, set, n, v uint64) {
	period := uint64(8) >> bits.TrailingZeros64(width|8)
	end := set + n
	first := (set + period - 1) / period * period
	head := min(end, first+period)
	for s := set; s < head; s++ {
		putSlot(slots, width, s, v)
	}
	if head == end {
		return
	}
	whole := first + (end-first)/period*period
	seg := slots[first*width/8 : whole*width/8]
	for done := period * width / 8; done < uint64(len(seg)); done *= 2 {
		copy(seg[done:], seg[:done])
	}
	for s := whole; s < end; s++ {
		putSlot(slots, width, s, v)
	}
}

// prewarmChunk is the number of warm positions installInterleaved takes
// from the cores per Install call: large enough to amortise the per-call
// costs, small enough that the chunks and their interleaving stay
// cache-resident.
const prewarmChunk = 512

// installInterleaved is the line-by-line prewarm: it expands each core's
// runs into lines and installs them position by position, cores in index
// order, so that conflict evictions are shared fairly, as they would be in
// steady state. At paper scale the warm set is millions of lines per core,
// so each step expands one chunk per core, interleaves the chunks into one
// batch and installs it in a single call.
func installInterleaved(t TagStore, cores [][]trace.Run) {
	cur := make([]runCursor, len(cores))
	chunks := make([][]uint64, len(cores))
	for i, runs := range cores {
		cur[i].runs = runs
		chunks[i] = make([]uint64, 0, prewarmChunk)
	}
	batch := make([]uint64, 0, len(cores)*prewarmChunk)
	for {
		longest := 0
		for i := range cur {
			chunks[i] = cur[i].take(chunks[i][:0], prewarmChunk)
			longest = max(longest, len(chunks[i]))
		}
		if longest == 0 {
			return
		}
		batch = batch[:0]
		for k := range longest {
			for _, chunk := range chunks {
				if k < len(chunk) {
					batch = append(batch, chunk[k])
				}
			}
		}
		t.Install(batch...)
	}
}

// runCursor walks a core's warm runs: the next line is runs[0].First+off.
type runCursor struct {
	runs []trace.Run
	off  uint64
}

// take appends up to n of the core's next warm lines to dst.
func (c *runCursor) take(dst []uint64, n uint64) []uint64 {
	for n > 0 && len(c.runs) > 0 {
		r := c.runs[0]
		k := min(n, r.Len-c.off)
		for j := range k {
			dst = append(dst, r.First+c.off+j)
		}
		c.off, n = c.off+k, n-k
		if c.off == r.Len {
			c.runs, c.off = c.runs[1:], 0
		}
	}
	return dst
}
