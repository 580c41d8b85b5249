#!/bin/sh
# ci.sh — the verify gauntlet for every PR.
#
# The race job matters here: the experiment Runner fans simulations out to
# a worker pool, and the exp test suite (determinism, singleflight and
# progress-atomicity tests) exercises that concurrency, so `go test -race`
# actually probes the paths a data race would hide in.
set -eux

cd "$(dirname "$0")/.."

# gofmt is a hard gate: a non-empty file list is a diff the author forgot
# to format.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
# simlint enforces the simulator's own invariants (determinism, map-order
# folds, stray goroutines, typed invariant panics) before the expensive
# race gate runs; see ARCHITECTURE.md
# "Enforced invariants". -cache keys the run on a
# hash of every non-test .go file, so an unchanged tree replays instantly.
go run ./cmd/simlint -cache ./...
# The analyzer is held to its own determinism standard: lint the lint
# package explicitly, so a narrowing of the main gate can never silently
# exempt it.
go run ./cmd/simlint ./internal/lint
# Archive the machine-readable finding set next to the BENCH_<n>.json
# snapshots (same tree hash as the gate run above, so this replays from the
# cache rather than re-type-checking).
go run ./cmd/simlint -cache -json ./... >LINT.json
# Informational: the audit trail of every //bear:nolint suppression and its
# reason. Not a gate — the reviewer reads it, the build does not.
go run ./cmd/simlint -nolint-report
go build ./...
# -shuffle=on randomises test order within each package, flushing out
# tests that silently depend on a predecessor's side effects.
go test -race -shuffle=on ./...
# TestSteadyStateAllocs skips under -race, which slows it about tenfold, so
# the gate above never runs it: run it here without the race detector. It
# bounds every design's steady-state allocations per instruction, the check
# that keeps per-access allocations off the hot path.
go test -run '^TestSteadyStateAllocs$' ./internal/hier

# bench-smoke: compile and run every benchmark exactly once. This keeps the
# perf harness (simbench_test.go and friends) from bit-rotting without
# adding meaningful CI time; timed runs go through scripts/bench.sh.
go test -run='^$' -bench=. -benchtime=1x ./...

# fuzz smoke: plain `go test` only replays FuzzScheduler's seed corpus;
# ten seconds of native fuzzing explores fresh request streams against the
# reference scan. A crasher lands in internal/dram/testdata/fuzz — commit it.
go test -run '^$' -fuzz FuzzScheduler -fuzztime 10s ./internal/dram
# The same for the trace-file reader behind bearsim -trace and beartrace:
# arbitrary bytes must parse or fail cleanly, and accepted traces must
# round-trip. Crashers land in internal/trace/testdata/fuzz.
go test -run '^$' -fuzz FuzzReadTrace -fuzztime 10s ./internal/trace
# And for the fault-plan parser: bearserve forwards Plan.String() to its
# workers, so every accepted plan must re-parse to itself. Crashers land in
# internal/faultpoint/testdata/fuzz.
go test -run '^$' -fuzz FuzzParsePlan -fuzztime 10s ./internal/faultpoint
# And for the Alloy-family TAD store's divide-free set index: it must equal
# line % sets for every set count. Crashers land in
# internal/dramcache/testdata/fuzz.
go test -run '^$' -fuzz FuzzTADSetIndex -fuzztime 10s ./internal/dramcache
# And for its dictionary-coded slots: random set counts and write sequences,
# with tags from a small pool (code reuse) and of every magnitude (the code
# space fills, widens and drops dead codes; seeded with pools on each side of
# every code-space boundary up to 9 bits), must decode back to the written
# line and dirty bit, leave both neighbouring sets decoding as before
# (widening and renumbering rewrite their bits, not their contents), and keep
# the dictionary consistent and the width within bits.Len64(4*sets).
go test -run '^$' -fuzz FuzzTADSlots -fuzztime 10s ./internal/dramcache
# And for its run prewarm: random set counts, per-core run lists and warm
# caps, with cross-core overlaps and runs that wrap onto their own core, must
# leave the slots exactly as the per-line round-robin Install does after the
# same code reservation, and every set decoding as the plain Install leaves it.
go test -run '^$' -fuzz FuzzPrewarmRuns -fuzztime 10s ./internal/dramcache
# And for the on-chip block tag store with one-line blocks, the Tags-In-SRAM
# store: random geometries and streams of MRU and LRU fills, touches,
# writeback hits and installs must agree with a bare sram.Cache on every
# hit, victim, victim dirtiness and frame.
go test -run '^$' -fuzz FuzzBlockTags -fuzztime 10s ./internal/dramcache
# And for the //bear:nolint grammar simlint and its -nolint-report share:
# any comment must parse without a panic, no name may hold a rationale
# separator, the report line must re-parse to the same suppression, and the
# suppression set must be the parse's known rules. Crashers land in
# internal/lint/testdata/fuzz.
go test -run '^$' -fuzz FuzzNolint -fuzztime 10s ./internal/lint
# And for the result store's envelope decoder, which bearbench, bearsim and
# bearserve all resume through: arbitrary bytes must never panic Ingest or
# Load, every envelope Ingest accepts must load back to a run re-encoding to
# its payload, and Load must never serve what Ingest refuses. Crashers land
# in internal/exp/testdata/fuzz.
go test -run '^$' -fuzz FuzzStoreIngest -fuzztime 10s ./internal/exp
# And for the units bearserve decodes from the network, as a /sweep body
# and as a worker's request line: nothing may panic, /sweep answers 202 or
# 400, and every unit Key accepts must re-encode to the same key. Crashers
# land in internal/serve/testdata/fuzz.
go test -run '^$' -fuzz FuzzUnitSpec -fuzztime 10s ./internal/serve

# perfbench is its own module (perfbench/go.mod), so `./...` and simlint
# stop at it. Vet and test it here so the benchmark's output checks keep
# compiling against the simulator they measure.
(cd perfbench && go vet . && go test .)

# fault-injection smoke: re-run the robustness suite (panic isolation,
# watchdog trips, -check epochs, store corruption/resume) under the race
# detector by name. These all ran in the main gate above; naming them here
# keeps the stage meaningful if the main gate ever narrows, and makes a
# robustness regression point at itself in the CI log.
go test -race -run 'Panic|Watchdog|Check|Store|Fingerprint|Fault|Invariant' \
	./internal/exp ./internal/hier ./internal/fault

# resume round-trip: a real bearbench sweep, interrupted only in the sense
# that it runs twice against the same store. The second run must restore
# every unit (zero simulations) and produce byte-identical artifacts.
# Timing lines ("[tab4 done in ...]") legitimately differ run to run and
# are filtered out of the comparison.
store=$(mktemp -d)
run1=$(mktemp)
run2=$(mktemp)
err2=$(mktemp)
trap 'rm -rf "$store" "$run1" "$run2" "$err2"' EXIT
resume_args="-run tab4 -scale 1024 -warm 20000 -meas 50000 -mixes 1 -resume $store"
go run ./cmd/bearbench $resume_args | grep -v '^\[' >"$run1"
go run ./cmd/bearbench $resume_args 2>"$err2" | grep -v '^\[' >"$run2"
cmp "$run1" "$run2"
grep -q 'result(s) restored' "$err2"

# The same round-trip through bearsim, which runs its design x workload
# units on the same Runner and Store: the second run restores all six
# units and prints the same bytes.
simstore=$(mktemp -d)
trap 'rm -rf "$store" "$run1" "$run2" "$err2" "$simstore"' EXIT
sim_args="-workload mcf,MIX1 -design Alloy,BEAR,LH -scale 1024 -warm 20000 -meas 50000 -resume $simstore"
go run ./cmd/bearsim $sim_args >"$run1"
go run ./cmd/bearsim $sim_args >"$run2" 2>"$err2"
cmp "$run1" "$run2"
grep -q '^bearsim: 6 result(s) restored' "$err2"

# chaos smoke: the bearserve supervision tree survives a worker killed
# mid-unit. A fault plan deterministically hangs the worker inside its one
# unit (so "mid-unit" is a fact, not a race), kill -9 takes the worker
# down from outside, and the server must retry and finish with results
# byte-identical to an uninjected run. A third instance checks the drain
# ladder: with a unit in flight, SIGTERM flips /readyz to 503 while
# /healthz stays 200, and the unfinished unit lands in the checkpoint
# manifest. (The in-process chaos matrix is TestChaosSweepByteIdentical
# in internal/serve; this stage proves the shipped binaries.)
bindir=$(mktemp -d)
cstore=$(mktemp -d)
fstore=$(mktemp -d)
dstore=$(mktemp -d)
srv=
trap 'kill "$srv" 2>/dev/null || true; rm -rf "$store" "$run1" "$run2" "$err2" "$simstore" "$bindir" "$cstore" "$fstore" "$dstore"' EXIT
go build -buildvcs=false -o "$bindir" ./cmd/bearbench ./cmd/bearserve
addr=127.0.0.1:18431
unit='{"units":[{"design":"Alloy","workload":"soplex"}]}'
# Fault plans address units by store key; derive it, never hand-write it.
key=$("$bindir/bearbench" -unitkey Alloy/soplex)

serve_wait_ready() {
	for _ in $(seq 1 100); do
		if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "bearserve never became ready" >&2
	return 1
}
progress_wait() { # $1: substring of /progress to wait for
	for _ in $(seq 1 300); do
		if curl -fsS "http://$addr/progress" | grep -q "$1"; then return 0; fi
		sleep 0.2
	done
	echo "bearserve progress never showed: $1" >&2
	curl -fsS "http://$addr/progress" >&2 || true
	return 1
}

# Reference sweep, no faults.
"$bindir/bearserve" -addr "$addr" -store "$cstore" -workers 1 -quick &
srv=$!
serve_wait_ready
curl -fsS -XPOST "http://$addr/sweep" -d "$unit" >/dev/null
progress_wait '"done": 1'
curl -fsS "http://$addr/result?design=Alloy&workload=soplex" >"$run1"
kill -TERM $srv
wait $srv

# Chaos sweep: the worker hangs inside the unit; kill -9 it mid-unit.
"$bindir/bearserve" -addr "$addr" -store "$fstore" -workers 1 -quick \
	-worker-faultplan "hang@worker.run/$key" &
srv=$!
serve_wait_ready
curl -fsS -XPOST "http://$addr/sweep" -d "$unit" >/dev/null
progress_wait '"running": 1'
sleep 1 # let the dispatched worker reach its injected hang
workerpid=$(pgrep -n -f "$bindir/bearbench -worker")
kill -9 "$workerpid"
progress_wait '"done": 1'
curl -fsS "http://$addr/progress" >"$run2"
grep -q '"retries": 1' "$run2"     # the kill was retried...
grep -q 'worker exited' "$run2"    # ...and classified as a worker death
curl -fsS "http://$addr/result?design=Alloy&workload=soplex" >"$run2"
kill -TERM $srv
wait $srv
cmp "$run1" "$run2" # recovery must not perturb results

# Drain ladder: SIGTERM with a hung unit in flight.
"$bindir/bearserve" -addr "$addr" -store "$dstore" -workers 1 -quick \
	-deadline 5s -worker-faultplan "hang@worker.run/$key" &
srv=$!
serve_wait_ready
curl -fsS -XPOST "http://$addr/sweep" -d "$unit" >/dev/null
progress_wait '"running": 1'
kill -TERM $srv
sleep 0.5
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz")" = 503
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")" = 200
wait $srv
test -f "$dstore/pending.json" # the unfinished unit was checkpointed
