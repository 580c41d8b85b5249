#!/bin/sh
# bench.sh — run the end-to-end simulator benchmarks and snapshot the numbers
# into the next free BENCH_<n>.json at the repository root.
#
# Successive snapshots (BENCH_1.json, BENCH_2.json, ...) record the perf
# trajectory across PRs: each file carries per-design ns/instr and
# allocs/instr for the steady-state hot path of every composition the
# experiments run — the eleven designs NoL4, Alloy, BEAR, BW-Opt, LH, MC,
# Incl-Alloy, TIS, SC, Banshee and TicToc (see simbench_test.go).
#
# Each benchmark runs COUNT times (default 5) and the snapshot keeps the
# per-name minimum: on a shared box the minimum estimates the true cost —
# noise from neighbours only ever adds time — so snapshots taken under
# different load remain comparable, and bench_compare.sh diffs the same
# statistic. One sample (COUNT=1) is only for quick smoke readings.
#
#   scripts/bench.sh              # five samples; the snapshot keeps the best
#   COUNT=9 scripts/bench.sh      # more samples for a noisier box
set -eu

cd "$(dirname "$0")/.."

n=1
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
out="BENCH_${n}.json"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkSim' -benchtime "${BENCHTIME:-1x}" \
	-count "${COUNT:-5}" . | tee "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version | { read -r _ _ v _; echo "$v"; })" '
/^BenchmarkSim/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	if (!(name in seen)) { seen[name] = 1; names[++count] = name }
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/instr" && (!(name in ns) || $i + 0 < ns[name] + 0))
			ns[name] = $i
		if ($(i + 1) == "allocs/instr" && (!(name in al) || $i + 0 < al[name] + 0))
			al[name] = $i
	}
}
END {
	if (count == 0) { print "bench.sh: no benchmark output parsed" > "/dev/stderr"; exit 1 }
	printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, gover
	for (i = 1; i <= count; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_instr\": %s, \"allocs_per_instr\": %s}%s\n", \
			names[i], ns[names[i]] + 0, al[names[i]] + 0, (i < count ? "," : "")
	}
	printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out"
cat "$out"
