#!/bin/sh
# bench.sh — run the simulator benchmarks and snapshot the numbers into the
# next free BENCH_<n>.json at the repository root.
#
# Successive snapshots (BENCH_1.json, BENCH_2.json, ...) record the perf
# trajectory across PRs. Each file carries, per design (the eleven designs
# NoL4, Alloy, BEAR, BW-Opt, LH, MC, Incl-Alloy, TIS, SC, Banshee and
# TicToc; see simbench_test.go):
#   - "benchmarks": ns/instr and allocs/instr of the steady-state hot path
#     (BenchmarkSim*), and the simulator's exact work over it: the DRAM
#     scheduler's picks per request and candidates priced per pick, events
#     executed per instruction and DRAM requests per instruction;
#   - "setup": ms/op and MB/op of one paper-scale (1 GB L4) hier.NewSim, the
#     tag arrays plus the functional prewarm (BenchmarkNewSimPaper).
#
# Each benchmark runs COUNT times (default 5) and those rows keep the
# per-name minimum. The minimum filters noise from neighbours within one
# session; it does not make two sessions comparable, because the box itself
# changes between them (BENCH_5 -> BENCH_6 read Alloy 130.1 -> 231.7
# ns/instr on unchanged code). A speed claim therefore needs the paired
# mode.
#
# Paired mode, BASE=<rev>: the base revision is built from a local git
# worktree (no network), then base and change (the working tree) run
# alternately, COUNT pairs, with the order swapped every pair. The
# snapshot's "paired" rows record, per name, the base and change medians,
# the median of the per-pair change/base ratios and the number of pairs the
# change won (ratio below 1). The timed metric is ns/instr for the Sim rows
# and ms/op for the set-up rows.
#
#   scripts/bench.sh                        # five samples; keep the best
#   COUNT=9 scripts/bench.sh                # more samples for a noisier box
#   BASE=HEAD~1 COUNT=10 scripts/bench.sh   # ten alternating pairs
set -eu

cd "$(dirname "$0")/.."

n=1
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
out="BENCH_${n}.json"
count=${COUNT:-5}
base=${BASE:-}

work=$(mktemp -d)
cleanup() {
	if [ -n "$base" ]; then
		git worktree remove --force "$work/base" 2>/dev/null || true
		git worktree prune
	fi
	rm -rf "$work"
}
trap cleanup EXIT

go test -c -o "$work/change.test" .
baserev=""
if [ -n "$base" ]; then
	baserev=$(git rev-parse --short "$base^{commit}")
	git worktree add --detach "$work/base" "$baserev" >/dev/null
	(cd "$work/base" && go test -c -o "$work/base.test" .)
fi

# run LABEL DIR PAIR: one pass over every benchmark, each line prefixed with
# its label and pair number.
run() {
	(cd "$2" && "$work/$1.test" -test.run '^$' -test.bench '^Benchmark(Sim|NewSimPaper)' \
		-test.benchtime "${BENCHTIME:-1x}" -test.benchmem) >"$work/pass"
	sed -n "s/^Benchmark/$1 $3 /p" "$work/pass" | tee -a "$work/raw"
}

i=1
while [ "$i" -le "$count" ]; do
	if [ -z "$base" ]; then
		run change . "$i"
	elif [ $((i % 2)) -eq 1 ]; then
		run base "$work/base" "$i"
		run change . "$i"
	else
		run change . "$i"
		run base "$work/base" "$i"
	fi
	i=$((i + 1))
done

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version | { read -r _ _ v _; echo "$v"; })" \
	-v count="$count" -v baserev="$baserev" '
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
function keepmin(arr, key, v) {
	if (!(key in arr) || v < arr[key]) arr[key] = v
}
{
	who = $1; pair = $2; name = $3
	sub(/-[0-9]+$/, "", name)
	setup = name ~ /^NewSimPaper\//
	if (!((who, name) in seen)) {
		seen[who, name] = 1
		if (who == "change") {
			if (setup) snames[++nsetup] = name; else bnames[++nbench] = name
		}
	}
	for (i = 4; i < NF; i++) {
		v = $i + 0; unit = $(i + 1)
		if (unit == "ns/instr") { t[who, name, pair] = v; if (who == "change") keepmin(ns, name, v) }
		if (unit == "allocs/instr" && who == "change") keepmin(al, name, v)
		if (unit == "picks/req" && who == "change") pk[name] = v
		if (unit == "priced/pick" && who == "change") pr[name] = v
		if (unit == "events/instr" && who == "change") ev[name] = v
		if (unit == "req/instr" && who == "change") rq[name] = v
		if (unit == "ns/op" && setup) { t[who, name, pair] = v / 1e6; if (who == "change") keepmin(ms, name, v / 1e6) }
		if (unit == "B/op" && setup && who == "change") keepmin(mb, name, v / 1e6)
	}
}
END {
	if (nbench + nsetup == 0) { print "bench.sh: no benchmark output parsed" > "/dev/stderr"; exit 1 }
	printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"count\": %d,\n", date, gover, count
	if (baserev != "") printf "  \"base\": \"%s\",\n", baserev
	printf "  \"benchmarks\": [\n"
	for (i = 1; i <= nbench; i++)
		printf "    {\"name\": \"%s\", \"ns_per_instr\": %s, \"allocs_per_instr\": %s, \"picks_per_req\": %s, \"priced_per_pick\": %s, \"events_per_instr\": %s, \"dram_req_per_instr\": %s}%s\n", \
			bnames[i], ns[bnames[i]], al[bnames[i]], pk[bnames[i]], pr[bnames[i]], ev[bnames[i]], rq[bnames[i]], (i < nbench ? "," : "")
	printf "  ],\n  \"setup\": [\n"
	for (i = 1; i <= nsetup; i++)
		printf "    {\"name\": \"%s\", \"ms_per_op\": %.1f, \"mb_per_op\": %.1f}%s\n", \
			snames[i], ms[snames[i]], mb[snames[i]], (i < nsetup ? "," : "")
	printf "  ]"
	if (baserev != "") {
		rows = 0
		for (i = 1; i <= nbench + nsetup; i++) {
			name = i <= nbench ? bnames[i] : snames[i - nbench]
			metric = i <= nbench ? "ns_per_instr" : "ms_per_op"
			np = 0; won = 0
			for (p = 1; p <= count; p++) {
				if (!(("base", name, p) in t) || !(("change", name, p) in t)) continue
				np++
				b[np] = t["base", name, p]; c[np] = t["change", name, p]; r[np] = c[np] / b[np]
				if (r[np] < 1) won++
			}
			if (np > 0)
				row[++rows] = sprintf("    {\"name\": \"%s\", \"metric\": \"%s\", \"base\": %.4g, \"change\": %.4g, \"ratio\": %.3f, \"won\": %d, \"pairs\": %d}", \
					name, metric, median(b, np), median(c, np), median(r, np), won, np)
		}
		printf ",\n  \"paired\": [\n"
		for (i = 1; i <= rows; i++) printf "%s%s\n", row[i], (i < rows ? "," : "")
		printf "  ]"
	}
	printf "\n}\n"
}' "$work/raw" >"$out"

echo "wrote $out"
cat "$out"
