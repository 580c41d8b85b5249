package trace

import (
	"fmt"
	"strings"
	"testing"

	"bear/internal/config"
)

func TestCatalogSane(t *testing.T) {
	if len(Catalog) != 16 {
		t.Fatalf("catalog has %d benchmarks, want 16 (Table 2)", len(Catalog))
	}
	high, medium := 0, 0
	for _, b := range Catalog {
		if b.MPKI <= 1 {
			t.Errorf("%s: MPKI %v <= 1 (paper only keeps MPKI > 1)", b.Name, b.MPKI)
		}
		if b.FootprintMB <= 0 {
			t.Errorf("%s: footprint %d", b.Name, b.FootprintMB)
		}
		if b.SeqFrac+b.HotFrac > 1 {
			t.Errorf("%s: SeqFrac+HotFrac = %v > 1", b.Name, b.SeqFrac+b.HotFrac)
		}
		if b.StoreFrac < 0 || b.StoreFrac > 1 {
			t.Errorf("%s: StoreFrac %v", b.Name, b.StoreFrac)
		}
		if b.APKI <= b.MPKI {
			t.Errorf("%s: APKI %v <= MPKI %v", b.Name, b.APKI, b.MPKI)
		}
		if b.HighIntensive() {
			high++
		} else {
			medium++
		}
	}
	// 8 high-intensive, 8 medium (sphinx3 counts as medium; see
	// Benchmark.HighIntensive).
	if high != 8 || medium != 8 {
		t.Errorf("intensity split = %dH/%dM, want 8H/8M", high, medium)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("mcf")
	if err != nil || b.MPKI != 74.6 {
		t.Fatalf("ByName(mcf) = %+v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name did not error")
	}
}

func TestDetailedMixesMatchTable3(t *testing.T) {
	if len(detailedMixes) != 8 {
		t.Fatalf("%d detailed mixes, want 8", len(detailedMixes))
	}
	wantClass := []string{"8H", "6H+2M", "6H+2M", "4H+4M", "4H+4M", "2H+6M", "2H+6M", "8M"}
	for i := range detailedMixes {
		w, err := Mix(i+1, 8, 64, 1)
		if err != nil {
			t.Fatalf("Mix(%d): %v", i+1, err)
		}
		if got := MixClass(w); got != wantClass[i] {
			t.Errorf("MIX%d class = %s, want %s", i+1, got, wantClass[i])
		}
		if len(w.Sources) != 8 {
			t.Errorf("MIX%d has %d sources", i+1, len(w.Sources))
		}
	}
}

func TestGeneratedMixes(t *testing.T) {
	for n := 9; n <= 38; n++ {
		w, err := Mix(n, 8, 64, 1)
		if err != nil {
			t.Fatalf("Mix(%d): %v", n, err)
		}
		if len(w.Benchs) != 8 {
			t.Fatalf("Mix(%d) has %d benchmarks", n, len(w.Benchs))
		}
		// Deterministic: same n gives same composition.
		w2, _ := Mix(n, 8, 64, 1)
		for i := range w.Benchs {
			if w.Benchs[i].Name != w2.Benchs[i].Name {
				t.Fatalf("Mix(%d) not deterministic", n)
			}
		}
	}
	if _, err := Mix(0, 8, 64, 1); err == nil {
		t.Fatal("Mix(0) should error")
	}
	if _, err := Mix(39, 8, 64, 1); err == nil {
		t.Fatal("Mix(39) should error")
	}
}

func TestRateWorkload(t *testing.T) {
	w, err := Rate("lbm", 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 8 || w.IsMix {
		t.Fatalf("rate workload malformed: %+v", w)
	}
	if _, err := Rate("bogus", 8, 64, 1); err == nil {
		t.Fatal("unknown rate workload did not error")
	}
}

func TestSingleWorkload(t *testing.T) {
	w, err := Single("gcc", 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 1 {
		t.Fatalf("single workload has %d sources, want 1", len(w.Sources))
	}
}

func TestGenDeterminism(t *testing.T) {
	b, _ := ByName("soplex")
	a := NewGen(b, 2, 64, 7)
	c := NewGen(b, 2, 64, 7)
	var oa, oc Op
	for i := 0; i < 10000; i++ {
		a.Next(&oa)
		c.Next(&oc)
		if oa != oc {
			t.Fatalf("generators diverged at op %d: %+v vs %+v", i, oa, oc)
		}
	}
}

func TestCoreRegionsDisjoint(t *testing.T) {
	b, _ := ByName("mcf") // largest footprint
	gens := make([]*Gen, 8)
	for c := range gens {
		gens[c] = NewGen(b, c, 1, 1) // full scale: worst case
	}
	for c := 1; c < 8; c++ {
		loEnd := gens[c-1].base + gens[c-1].footLines
		if gens[c].base < loEnd {
			t.Fatalf("core %d region overlaps core %d (base %d < end %d)",
				c, c-1, gens[c].base, loEnd)
		}
	}
}

func TestAddressesWithinRegion(t *testing.T) {
	for _, name := range []string{"mcf", "libq", "xalanc"} {
		b, _ := ByName(name)
		g := NewGen(b, 3, 64, 5)
		lo, hi := g.base, g.base+g.footLines
		var op Op
		for i := 0; i < 50000; i++ {
			g.Next(&op)
			if op.Line < lo || op.Line >= hi {
				t.Fatalf("%s: address %d outside region [%d,%d)", name, op.Line, lo, hi)
			}
		}
	}
}

func TestMissFractionMatchesMPKI(t *testing.T) {
	// The far-access rate per kilo-instruction should approximate the
	// benchmark's MPKI (far accesses are the ones that reach the L3/L4).
	for _, name := range []string{"mcf", "libq", "wrf"} {
		b, _ := ByName(name)
		g := NewGen(b, 0, 64, 3)
		var op Op
		far := 0
		instr := uint64(0)
		const ops = 300000
		seen := map[uint64]bool{}
		for i := 0; i < ops; i++ {
			g.Next(&op)
			instr += uint64(op.NonMem) + 1
			if op.PC >= pcHot { // far-access PC pools
				far++
			}
			seen[op.Line] = true
		}
		gotMPKI := 1000 * float64(far) / float64(instr)
		if gotMPKI < b.MPKI*0.8 || gotMPKI > b.MPKI*1.25 {
			t.Errorf("%s: far-access KPKI = %.1f, want about %.1f", name, gotMPKI, b.MPKI)
		}
	}
}

func TestStoreFraction(t *testing.T) {
	b, _ := ByName("lbm")
	g := NewGen(b, 0, 64, 9)
	var op Op
	stores := 0
	const n = 100000
	for i := 0; i < n; i++ {
		g.Next(&op)
		if op.Store {
			stores++
		}
	}
	got := float64(stores) / n
	if got < b.StoreFrac-0.02 || got > b.StoreFrac+0.02 {
		t.Errorf("store fraction = %.3f, want about %.2f", got, b.StoreFrac)
	}
}

func TestFootprintScaling(t *testing.T) {
	b, _ := ByName("milc")
	full := NewGen(b, 0, 1, 1).FootprintLines()
	scaled := NewGen(b, 0, 8, 1).FootprintLines()
	if scaled != full/8 {
		t.Errorf("scale 8 footprint = %d, want %d", scaled, full/8)
	}
	// Footprint floor.
	tiny := NewGen(b, 0, 1<<30, 1).FootprintLines()
	if tiny < 1024 {
		t.Errorf("footprint fell below floor: %d", tiny)
	}
}

// refPrewarm is the warm-set enumeration written as a plain loop over the
// hot set and then the footprint: the lines PrewarmRuns expands to must
// reproduce it line for line.
func refPrewarm(g *Gen, limit uint64, visit func(line uint64)) {
	n := uint64(0)
	for i := uint64(0); i < g.hotLines && n < limit; i++ {
		visit(g.hotBase + i)
		n++
	}
	for i := uint64(0); i < g.footLines && n < limit; i++ {
		line := g.base + i
		if line >= g.hotBase && line < g.hotBase+g.hotLines {
			continue
		}
		visit(line)
		n++
	}
}

// forEachPrewarmCase runs check over every catalog benchmark at scales from
// paper size (1) to the footprint floor (1<<30), each at limits 0, 1, 5000,
// the simulator's fair share per core, one above the footprint, and the
// run seams: one short of the hot set, the hot set, the hot set plus the
// footprint below it, and the whole footprint.
func forEachPrewarmCase(t *testing.T, check func(t *testing.T, g *Gen, limit uint64)) {
	t.Helper()
	for _, b := range Catalog {
		for _, scale := range []int{1, 64, 256, 1 << 30} {
			cfg := config.Default(scale)
			g := NewGen(b, 3, scale, 1)
			fair := uint64(cfg.CacheBytes) / config.TADBytes / uint64(cfg.Core.Count)
			lead := g.hotBase - g.base
			for _, limit := range []uint64{0, 1, 5000, fair, g.footLines + 1,
				g.hotLines - min(g.hotLines, 1), g.hotLines, g.hotLines + lead, g.footLines} {
				t.Run(fmt.Sprintf("%s/scale=%d/limit=%d", b.Name, scale, limit), func(t *testing.T) {
					check(t, g, limit)
				})
			}
		}
	}
}

// TestPrewarm pins PrewarmRuns to refPrewarm: its runs, expanded line by
// line, visit the same lines in the same order.
func TestPrewarm(t *testing.T) {
	forEachPrewarmCase(t, func(t *testing.T, g *Gen, limit uint64) {
		runs := g.PrewarmRuns(limit)
		k, off := 0, uint64(0) // the next warm line is runs[k].First+off
		i := uint64(0)
		refPrewarm(g, limit, func(line uint64) {
			if k == len(runs) {
				t.Fatalf("runs end after %d lines, reference visits line %d = %d", i, i, line)
			}
			if got := runs[k].First + off; got != line {
				t.Fatalf("run %d line %d = %d, reference visits %d", k, i, got, line)
			}
			if off++; off == runs[k].Len {
				k, off = k+1, 0
			}
			i++
		})
		if k != len(runs) {
			t.Fatalf("reference visits %d lines, runs %v hold more", i, runs)
		}
	})
}

// TestPrewarmProperty checks the warm set's contract directly: no run is
// empty, the runs hold min(limit, footprint) lines, every line lies in the
// footprint, none repeats, and the hot set comes first.
func TestPrewarmProperty(t *testing.T) {
	forEachPrewarmCase(t, func(t *testing.T, g *Gen, limit uint64) {
		runs := g.PrewarmRuns(limit)
		seen := make([]uint64, (g.footLines+63)/64)
		i := uint64(0)
		for _, r := range runs {
			if r.Len == 0 {
				t.Fatalf("empty run in %v", runs)
			}
			for line := r.First; line < r.First+r.Len; line++ {
				if line < g.base || line >= g.base+g.footLines {
					t.Fatalf("warm line %d = %d outside footprint", i, line)
				}
				off := line - g.base
				if seen[off/64]&(1<<(off%64)) != 0 {
					t.Fatalf("warm line %d = %d repeats", i, line)
				}
				seen[off/64] |= 1 << (off % 64)
				if i < g.hotLines && line != g.hotBase+i {
					t.Fatalf("warm line %d = %d, want hot line %d first", i, line, g.hotBase+i)
				}
				i++
			}
		}
		if want := min(limit, g.footLines); i != want {
			t.Fatalf("runs hold %d lines, want %d", i, want)
		}
	})
}

func TestRateNames(t *testing.T) {
	names := RateNames()
	if len(names) != 16 {
		t.Fatalf("%d rate names", len(names))
	}
	if names[0] != "mcf" {
		t.Errorf("first rate name = %s", names[0])
	}
}

func TestDescribe(t *testing.T) {
	d := Describe()
	for _, want := range []string{"mcf", "74.6", "High", "Medium", "xalanc"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q", want)
		}
	}
}

func TestNonMemAveragesToAPKI(t *testing.T) {
	b, _ := ByName("cactus")
	g := NewGen(b, 0, 64, 4)
	var op Op
	var instr uint64
	const ops = 200000
	for i := 0; i < ops; i++ {
		g.Next(&op)
		instr += uint64(op.NonMem) + 1
	}
	apki := 1000 * float64(ops) / float64(instr)
	if apki < b.APKI*0.97 || apki > b.APKI*1.03 {
		t.Errorf("measured APKI = %.1f, want about %.0f", apki, b.APKI)
	}
}
