#!/bin/sh
# bench_compare.sh — diff the two newest BENCH_<n>.json snapshots at the
# repository root, printing per-benchmark ns/instr and allocs/instr deltas
# and per-design paper-scale set-up (ms/op, MB/op) deltas. Positive
# percentages are regressions (the newer snapshot is slower). It exits
# non-zero on a ns/instr regression above 5%, or when any design's set-up
# MB/op rises by more than 1%: the set-up footprint is deterministic, so
# unlike a timing it needs no noise allowance.
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
# Each line becomes "<kind> <name> <value> <value>": kind "sim" for the
# ns/instr rows, "setup" for the NewSimPaper rows. Snapshots before
# BENCH_7 have no setup rows.
parse() {
	sed -n -e 's/.*"name": *"\([^"]*\)", *"ns_per_instr": *\([0-9.eE+-]*\), *"allocs_per_instr": *\([0-9.eE+-]*\).*/sim \1 \2 \3/p' \
		-e 's/.*"name": *"\([^"]*\)", *"ms_per_op": *\([0-9.eE+-]*\), *"mb_per_op": *\([0-9.eE+-]*\).*/setup \1 \2 \3/p' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
parse "$old" >"$tmp/old"
parse "$new" >"$tmp/new"

awk 'NR == FNR { a[$1, $2] = $3; b[$1, $2] = $4; next }
{
	if (!(($1, $2) in a)) { printf "%-24s only in newer snapshot\n", $2; next }
	d = ($3 - a[$1, $2]) / a[$1, $2] * 100
	if ($1 == "sim") {
		printf "%-24s ns/instr %8.1f -> %8.1f  (%+6.1f%%)   allocs/instr %.2e -> %.2e\n", \
			$2, a[$1, $2], $3, d, b[$1, $2], $4
		if (d > 5) bad = 1
	} else {
		printf "%-24s ms/op    %8.1f -> %8.1f  (%+6.1f%%)   MB/op %8.1f -> %8.1f\n", \
			$2, a[$1, $2], $3, d, b[$1, $2], $4
		if ($4 > b[$1, $2] * 1.01) {
			printf "%-24s MB/op rose by more than 1%%\n", $2
			bad = 1
		}
	}
}
END { exit bad }' "$tmp/old" "$tmp/new" || bad=1

if grep -q '"paired"' "$new"; then
	echo "same-session pairs in $new (change/base against $(sed -n 's/.*"base": *"\([^"]*\)".*/\1/p' "$new" | head -n 1)):"
	sed -n 's/.*"name": *"\([^"]*\)", *"metric": *"\([^"]*\)", *"base": *\([^,]*\), *"change": *\([^,]*\), *"ratio": *\([^,]*\), *"won": *\([0-9]*\), *"pairs": *\([0-9]*\).*/\1 \2 \3 \4 \5 \6 \7/p' "$new" |
		awk '{ printf "%-24s %-12s %10s -> %10s  ratio x%s  won %s of %s\n", $1, $2, $3, $4, $5, $6, $7 }'
fi
exit "${bad:-0}"
