// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Every source of randomness in a
// simulation (workload address streams, probabilistic bypass decisions) is
// derived from an explicit seed so that runs are exactly reproducible.
//
// # Seeding contract
//
// The generator's output is part of the simulator's stable interface: the
// golden experiment outputs (fig12, fig13, tab4) depend on the exact draw
// sequence, so the algorithm (xorshift64*), the zero-seed remap constant
// and the Fork derivation constant must not change without regenerating
// every golden file. The contract, pinned by TestGoldenSequence:
//
//   - equal seeds produce equal sequences, on every platform and Go
//     version (the implementation is pure integer arithmetic);
//   - a zero seed is remapped to a fixed non-zero constant, never to
//     something time- or address-derived;
//   - Fork derives an independent stream from the parent's current state,
//     deterministically — forking at the same point in the parent sequence
//     always yields the same child sequence;
//   - components must obtain randomness only through this package, never
//     from math/rand or the wall clock (enforced by simlint's determinism
//     rule; see ARCHITECTURE.md "Enforced invariants").
package rng

import "math/bits"

// Source is an xorshift64* generator. The zero value is not valid; use New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. A zero seed is remapped to a fixed
// non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Source{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *Source) Uint64() uint64 {
	var v uint64
	s.state, v = Step(s.state)
	return v
}

// Uint64n returns a value uniformly distributed in [0, n). n must be > 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	return Below(s.Uint64(), n)
}

// Intn returns a value uniformly distributed in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a value uniformly distributed in [0, 1).
func (s *Source) Float64() float64 {
	return Unit(s.Uint64())
}

// State returns the generator's state word, for a loop that draws through
// Step.
func (s *Source) State() uint64 { return s.state }

// Step is the generator's transition on a bare state word: it returns the
// state after one draw and the value Uint64 would have returned from state
// x. A loop that keeps the state in a local and draws through Step lets the
// compiler hold it in a register, where a *Source's state makes a memory
// round trip per draw; the draws are the same.
func Step(x uint64) (next, v uint64) {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x, x * 0x2545f4914f6cdd1d
}

// Below maps a draw v to [0, n) as Uint64n does. Multiply-shift reduction:
// bias is negligible for simulation purposes and the method is branch-free
// and fast.
func Below(v, n uint64) uint64 {
	hi, _ := mul64(v, n)
	return hi
}

// Unit maps a draw v to [0, 1) as Float64 does.
func Unit(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Fork derives an independent child generator from the current state. The
// child's stream does not overlap the parent's for any practical length.
func (s *Source) Fork() *Source {
	return New(s.Uint64() ^ 0xd1342543de82ef95)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }
