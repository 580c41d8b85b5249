package rng

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestUint64nRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint32) bool {
		if n == 0 {
			n = 1
		}
		s := New(seed)
		for i := 0; i < 50; i++ {
			if s.Uint64n(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.28 || got > 0.32 {
		t.Fatalf("Bool(0.3) frequency = %.3f, want about 0.3", got)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1.0) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestIntnUniformish(t *testing.T) {
	s := New(5)
	const buckets = 8
	counts := make([]int, buckets)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.15 {
			t.Fatalf("bucket %d has frequency %.3f, want about 0.125", i, frac)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(9)
	child := parent.Fork()
	// Child stream should not replay the parent's subsequent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("fork correlated with parent: %d matches", same)
	}
}

// TestMul64 checks the 128-bit product against math/big on edge operands
// and random ones.
func TestMul64(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1 << 63, ^uint64(0)}
	r := New(7)
	check := func(a, b uint64) {
		hi, lo := mul64(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		got.Or(got, new(big.Int).SetUint64(lo))
		if got.Cmp(want) != 0 {
			t.Fatalf("mul64(%#x, %#x) = (%#x, %#x), want %#x", a, b, hi, lo, want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
		check(a, r.Uint64())
	}
	for range 10000 {
		check(r.Uint64(), r.Uint64())
	}
}

// TestStepMatchesSource: a state drawn through Step, Below and Unit yields
// the draws of the Source it came from.
func TestStepMatchesSource(t *testing.T) {
	s := New(42)
	x := New(42).State()
	var v uint64
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			want := s.Uint64()
			if x, v = Step(x); v != want {
				t.Fatalf("draw %d: Step gave %#x, Uint64 %#x", i, v, want)
			}
		case 1:
			n := uint64(i)
			want := s.Uint64n(n)
			if x, v = Step(x); Below(v, n) != want {
				t.Fatalf("draw %d: Below gave %d, Uint64n %d", i, Below(v, n), want)
			}
		case 2:
			want := s.Float64()
			if x, v = Step(x); Unit(v) != want {
				t.Fatalf("draw %d: Unit gave %v, Float64 %v", i, Unit(v), want)
			}
		}
	}
	if x != s.State() {
		t.Fatalf("states diverged: %#x vs %#x", x, s.State())
	}
}
