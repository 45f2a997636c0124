#!/bin/sh
# benchpair.sh — alternating A/B pairs of the repo benchmark.
#
#   scripts/benchpair.sh <base-rev> <workload> <seconds> <pairs>
#
# Checks <base-rev> out into a temporary git worktree (removed on exit),
# builds the bench harness once in it and once in the working tree, and runs
# `bench -workload <workload> -seconds <seconds>` <pairs> times on each side,
# alternating: odd pairs run the base first, even pairs the change first.
# Each run executes from the root of its own tree, as `go run ./bench` would,
# so it builds and drives that tree's binaries.
#
# Prints each run's result line (the harness's last line of output) as it
# lands, then, per end-to-end metric of BENCHMARK.json: the base and change
# medians, the base's quartiles, and in how many pairs the change was
# better. Last, each run's `correct` and `failed`. Needs git, go and awk
# only; it is a measuring aid, not a gate, and changes nothing under bench/.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: $0 <base-rev> <workload> <seconds> <pairs>" >&2
	exit 2
fi
base_rev=$1 workload=$2 seconds=$3 pairs=$4

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
wt=$tmp/base
cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --quiet --detach "$wt" "$base_rev"
(cd "$wt" && go build -o "$tmp/bench.base" ./bench)
(cd "$root" && go build -o "$tmp/bench.change" ./bench)

# run <side> <pair>: one harness run; its last output line goes to the
# results file, tagged with the side and pair.
run() {
	if [ "$1" = base ]; then dir=$wt; else dir=$root; fi
	out=$tmp/run.out
	(cd "$dir" && "$tmp/bench.$1" -workload "$workload" -seconds "$seconds") >"$out" 2>"$tmp/run.err" || true
	line=$(tail -n 1 "$out")
	case $line in
	"{"*) ;;
	*) line='{"correct":false,"failed":-1,"metrics":{}}' ;;
	esac
	echo "$1 $2 $line" >>"$tmp/results"
	echo "pair $2 $1: $line"
}

: >"$tmp/results"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
	i=$((i + 1))
done

# The end-to-end metrics and their directions, from BENCHMARK.json's
# "end_to_end" block, then the results file.
awk '
function val(line, name,    re, s) {
	re = "\"" name "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return ""
	s = substr(line, RSTART, RLENGTH)
	sub(/.*"value":/, "", s)
	return s + 0
}
function field(line, name,    re, s) {
	re = "\"" name "\":[a-z0-9-]+"
	if (!match(line, re)) return "?"
	s = substr(line, RSTART, RLENGTH)
	sub(/.*:/, "", s)
	return s
}
function sortv(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
}
function median(v, n) {
	sortv(v, n)
	return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
# quartile i (1 or 3) of the sorted v[1..n], the method bench/stats.go uses.
function quart(v, n, i,    j, d) {
	if (n < 2) return v[1]
	j = int(i * (n + 1) / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = i * (n + 1) - j * 4
	return (v[j] * (4 - d) + v[j + 1] * d) / 4
}
FNR == NR {
	if ($0 ~ /"end_to_end"/) { inblock = 1; next }
	if ($0 ~ /"per_layer"/) inblock = 0
	if (inblock && $0 ~ /"name"/) { s = $0; gsub(/.*"name": *"|".*/, "", s); name = s; metrics[++nm] = name }
	if (inblock && $0 ~ /"better"/) { s = $0; gsub(/.*"better": *"|".*/, "", s); better[name] = s }
	next
}
{
	side = $1; pair = $2; line = $0
	sub(/^[a-z]+ [0-9]+ /, "", line)
	runs[++nr] = sprintf("pair %d %-6s correct=%s failed=%s", pair, side, field(line, "correct"), field(line, "failed"))
	for (k = 1; k <= nm; k++) {
		x = val(line, metrics[k])
		if (x == "") continue
		got[side, pair, metrics[k]] = x
	}
	if (pair > np) np = pair
}
END {
	printf "\n%-18s %12s %12s %12s %12s %8s\n", "metric", "base_med", "change_med", "base_q1", "base_q3", "better"
	for (k = 1; k <= nm; k++) {
		m = metrics[k]; nb = 0; nc = 0; wins = 0; both = 0
		delete b; delete c
		for (p = 1; p <= np; p++) {
			hb = (("base", p, m) in got); hc = (("change", p, m) in got)
			if (hb) b[++nb] = got["base", p, m]
			if (hc) c[++nc] = got["change", p, m]
			if (hb && hc) {
				both++
				d = got["change", p, m] - got["base", p, m]
				if ((better[m] == "higher" && d > 0) || (better[m] != "higher" && d < 0)) wins++
			}
		}
		if (nb == 0 || nc == 0) { printf "%-18s %12s\n", m, "no data"; continue }
		bm = median(b, nb); cm = median(c, nc)
		printf "%-18s %12.6g %12.6g %12.6g %12.6g %5d/%d\n", m, bm, cm, quart(b, nb, 1), quart(b, nb, 3), wins, both
	}
	printf "\n"
	for (r = 1; r <= nr; r++) print runs[r]
}' "$root/BENCHMARK.json" "$tmp/results"
