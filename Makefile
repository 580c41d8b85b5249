# Standard targets; `make ci` is what a PR must pass.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke bench-snapshot bench-compare profile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The parallel experiment
# Runner is exercised by internal/exp's determinism and singleflight tests,
# so this catches races in the sweep engine, not just in library code.
# TestSteadyStateAllocs skips under -race (about 10x slower there), so it
# runs once more without it.
race:
	$(GO) test -race ./...
	$(GO) test -run '^TestSteadyStateAllocs$$' ./internal/hier

vet:
	$(GO) vet ./...

# lint runs simlint, the repository's own static analyzer: determinism
# (wall clock / math/rand / os.Getenv / map-order folds / stray goroutines)
# and typed invariant panics. See ARCHITECTURE.md "Enforced invariants" for
# the rule catalogue. -cache keys the result on a hash of every non-test .go
# file (.simlint.cache), so a clean re-run replays without re-type-checking
# the module.
lint:
	$(GO) run ./cmd/simlint -cache ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-smoke compiles and runs every benchmark once (no timing fidelity);
# it guards against benchmark bit-rot without slowing CI down.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-snapshot records a timed run into the next free BENCH_<n>.json
# (see README "Performance").
bench-snapshot:
	scripts/bench.sh

# bench-compare diffs the two newest BENCH_<n>.json snapshots (ns/instr and
# allocs/instr per benchmark, set-up ms/op and MB/op per design) and prints
# the newer one's paired rows, if any; it exits non-zero on a >5% ns/instr
# regression, a set-up MB/op rise above 1%, a work counter that differs
# between the two, or a paired row lost 9 in 10 times at a median ratio
# above 1.05.
bench-compare:
	scripts/bench_compare.sh

# profile captures a CPU profile of one full simulation run (default
# Alloy/mcf; override with DESIGN=/WORKLOAD=) and renders the top-20 hottest
# functions into profiles/cpu_<design>_<workload>.txt.
profile:
	scripts/profile.sh

ci: vet lint build race bench-smoke
