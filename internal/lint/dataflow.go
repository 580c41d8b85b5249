package lint

import "go/ast"

// A generic forward dataflow solver over the cfg. A client supplies the
// lattice operations; the solver iterates transfer functions to a fixpoint
// and hands back the converged block-entry states, which the client replays
// once (in deterministic block order) to emit diagnostics. Splitting
// "solve" from "report" keeps diagnostics single-shot even when the
// worklist visits a block many times.
//
// State values are mutated in place by transfer/refine; the solver clones
// before every mutation, so clients never see aliasing between blocks.
type flowClient[S any] interface {
	// entry returns the state on function entry.
	entry() S
	// clone returns an independent copy of s.
	clone(s S) S
	// merge folds src into dst, reporting whether dst changed. It must be
	// monotone and bounded for the solver to terminate.
	merge(dst, src S) bool
	// transfer applies one cfg node to s in place. report is false during
	// fixpoint iteration and true during the final replay; node-anchored
	// diagnostics must only fire when it is true.
	transfer(s S, n ast.Node, report bool)
	// refine narrows s along a conditional edge (cond evaluated as taken).
	// Optional: a no-op implementation is fine.
	refine(s S, cond ast.Expr, taken bool)
}

// solve runs the fixpoint and returns the entry state of every reachable
// block (indexed by block index; unreachable blocks stay absent).
func solve[S any](c *cfg, fc flowClient[S]) map[int]S {
	in := map[int]S{c.entry.index: fc.entry()}
	worklist := []*block{c.entry}
	queued := map[int]bool{c.entry.index: true}

	// Safety valve: with monotone bounded lattices this never triggers; it
	// bounds the damage of a client bug to "analysis silently incomplete"
	// rather than a hung linter.
	budget := (len(c.blocks) + 1) * 256

	for len(worklist) > 0 && budget > 0 {
		budget--
		b := worklist[0]
		worklist = worklist[1:]
		queued[b.index] = false

		s := fc.clone(in[b.index])
		for _, n := range b.nodes {
			fc.transfer(s, n, false)
		}
		for _, e := range b.succs {
			out := fc.clone(s)
			if e.cond != nil {
				fc.refine(out, e.cond, e.taken)
			}
			prev, ok := in[e.to.index]
			changed := false
			if !ok {
				in[e.to.index] = out
				changed = true
			} else {
				changed = fc.merge(prev, out)
			}
			if changed && !queued[e.to.index] {
				queued[e.to.index] = true
				worklist = append(worklist, e.to)
			}
		}
	}
	return in
}

// replay re-runs the converged states through every reachable block in
// deterministic order with reporting enabled.
func replay[S any](c *cfg, fc flowClient[S], in map[int]S) {
	for _, b := range c.reachable() {
		s, ok := in[b.index]
		if !ok {
			continue
		}
		s = fc.clone(s)
		for _, n := range b.nodes {
			fc.transfer(s, n, true)
		}
	}
}
