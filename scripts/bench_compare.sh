#!/bin/sh
# bench_compare.sh — diff the two newest BENCH_<n>.json snapshots at the
# repository root, printing per-benchmark ns/instr and allocs/instr deltas,
# the per-benchmark work counters (picks_per_req, priced_per_pick,
# events_per_instr, dram_req_per_instr) of both snapshots, and per-design paper-scale set-up
# (ms/op, MB/op) deltas. Positive percentages are regressions (the newer
# snapshot is slower). It exits non-zero on a ns/instr regression above 5%,
# or when any design's set-up MB/op rises by more than 1%: the set-up
# footprint is deterministic, so unlike a timing it needs no noise
# allowance. It exits non-zero when a work counter differs between the
# snapshots: the counters are exact, so any difference means the simulator
# did different work. A counter missing from either snapshot (older
# snapshots predate some of them) prints n/a and is not compared. It also
# exits non-zero when
# a paired row (see below) has a median change/base ratio above 1.05 and
# the change lost at least 9 in 10 of its pairs: a same-session
# regression, which a diff of two sessions' minima cannot show.
#
# Snapshots record the per-name minimum over bench.sh's COUNT samples, so
# within one session a diff compares minima against minima, never a single
# unlucky run against a lucky one. Two snapshots from different sessions
# are not comparable that way: the box changes between sessions (BENCH_5 ->
# BENCH_6 read Alloy 130.1 -> 231.7 ns/instr on unchanged code), so such a
# diff is a rough trajectory, not evidence. When the newer snapshot was
# taken in bench.sh's paired mode (BASE=<rev>), this script also prints its
# same-session pair ratios and win counts, which is what a speed claim
# should cite.
#
#   make bench-compare
#   scripts/bench_compare.sh BENCH_1.json BENCH_3.json   # explicit pair
set -eu

cd "$(dirname "$0")/.."

if [ $# -eq 2 ]; then
	old=$1
	new=$2
else
	old=""
	new=""
	n=1
	while [ -e "BENCH_${n}.json" ]; do
		old=$new
		new="BENCH_${n}.json"
		n=$((n + 1))
	done
	if [ -z "$old" ]; then
		echo "bench_compare.sh: need at least two BENCH_<n>.json snapshots" >&2
		exit 1
	fi
fi

echo "comparing $old -> $new"

# The snapshots are one-benchmark-per-line JSON written by bench.sh, so a
# line-oriented parse is reliable without a JSON tool in the image.
# Each line becomes "<kind> <name> <value>...": kind "sim" for the
# ns/instr rows, with ns/instr, allocs/instr and the four work counters,
# and "setup" for the NewSimPaper rows, with ms/op and MB/op. A field the
# row lacks reads n/a. Snapshots before BENCH_7 have no setup rows.
parse() {
	awk 'function field(key,    v) {
		if (!match($0, "\"" key "\": *[^,}]*")) return "n/a"
		v = substr($0, RSTART, RLENGTH)
		sub(/^"[^"]*": */, "", v)
		gsub(/"/, "", v)
		return v
	}
	/"ns_per_instr": *[0-9]/ {
		print "sim", field("name"), field("ns_per_instr"), field("allocs_per_instr"),
			field("picks_per_req"), field("priced_per_pick"), field("events_per_instr"),
			field("dram_req_per_instr")
	}
	/"ms_per_op": *[0-9]/ { print "setup", field("name"), field("ms_per_op"), field("mb_per_op") }' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
parse "$old" >"$tmp/old"
parse "$new" >"$tmp/new"

awk 'BEGIN { unit[5] = "picks/req"; unit[6] = "priced/pick"; unit[7] = "events/instr"; unit[8] = "req/instr" }
NR == FNR { for (i = 3; i <= NF; i++) old[$1, $2, i] = $i; seen[$1, $2] = 1; next }
{
	if (!(($1, $2) in seen)) { printf "%-24s only in newer snapshot\n", $2; next }
	a = old[$1, $2, 3]; b = old[$1, $2, 4]
	d = ($3 - a) / a * 100
	if ($1 == "sim") {
		printf "%-24s ns/instr %8.1f -> %8.1f  (%+6.1f%%)   allocs/instr %.2e -> %.2e\n", $2, a, $3, d, b, $4
		if (d > 5) bad = 1
		line = ""; differ = ""
		for (i = 5; i <= 8; i++) {
			o = old[$1, $2, i]
			line = line sprintf("%s%s %s -> %s", (i > 5 ? "   " : ""), unit[i], o, $i)
			if (o != "n/a" && $i != "n/a" && o + 0 != $i + 0) differ = differ " " unit[i]
		}
		printf "%-24s %s\n", "", line
		if (differ != "") {
			printf "%-24s work counters differ:%s\n", $2, differ
			bad = 1
		}
	} else {
		printf "%-24s ms/op    %8.1f -> %8.1f  (%+6.1f%%)   MB/op %8.1f -> %8.1f\n", $2, a, $3, d, b, $4
		if ($4 > b * 1.01) {
			printf "%-24s MB/op rose by more than 1%%\n", $2
			bad = 1
		}
	}
}
END { exit bad }' "$tmp/old" "$tmp/new" || bad=1

if grep -q '"paired"' "$new"; then
	echo "same-session pairs in $new (change/base against $(sed -n 's/.*"base": *"\([^"]*\)".*/\1/p' "$new" | head -n 1)):"
	sed -n 's/.*"name": *"\([^"]*\)", *"metric": *"\([^"]*\)", *"base": *\([^,]*\), *"change": *\([^,]*\), *"ratio": *\([^,]*\), *"won": *\([0-9]*\), *"pairs": *\([0-9]*\).*/\1 \2 \3 \4 \5 \6 \7/p' "$new" >"$tmp/pairs"
	awk '{
		printf "%-24s %-12s %10s -> %10s  ratio x%s  won %s of %s\n", $1, $2, $3, $4, $5, $6, $7
		lost = $7 - $6
		if ($5 > 1.05 && lost * 10 >= $7 * 9) {
			printf "%-24s lost %d of %d pairs at a median ratio above x1.05\n", $1, lost, $7
			bad = 1
		}
	}
	END { exit bad }' "$tmp/pairs" || bad=1
fi
exit "${bad:-0}"
