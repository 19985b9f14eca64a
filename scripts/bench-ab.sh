#!/usr/bin/env bash
# Paired end-to-end benchmark runs: the working tree against a base
# revision, on workloads of bench/run.sh.
#
#   bash scripts/bench-ab.sh -base REV -workload W[,W2...] [-n 10]
#   make bench-ab BASE=REV W=W[,W2...] [N=10]
#
# -workload takes one workload, a comma-separated list, or `all` for
# every workload BENCHMARK.json names; each runs its N pairs and prints
# its summary before the next starts.
#
# The base side is `git archive REV`, unpacked once under
# .bench_build/ab/<rev>/ and built there by its own bench/run.sh; the
# change side is this tree, uncommitted edits included. Pair i runs both
# sides with -seed i, and the side that runs first alternates from pair to
# pair, so a host that drifts in speed penalizes neither. Every pair's
# wall_s, cpu_s and setup_s is printed as it finishes, then each side's
# median and quartiles per metric and the number of pairs the change won
# (a lower value). A run whose last line reports a failed operation or a
# wrong result stops the script. This is a measurement: it takes minutes
# (two full runs per pair) and is not part of any test or CI job.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
base="" workload="" n=10
while [ $# -gt 0 ]; do
	case "$1" in
	-base) base=$2; shift 2 ;;
	-workload) workload=$2; shift 2 ;;
	-n) n=$2; shift 2 ;;
	*) echo "bench-ab: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [ -z "$base" ] || [ -z "$workload" ]; then
	echo "usage: bash scripts/bench-ab.sh -base REV -workload W[,W2...]|all [-n N]" >&2
	exit 2
fi
if [ "$workload" = all ]; then
	workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' "$root/BENCHMARK.json")
else
	workloads=${workload//,/ }
fi

rev=$(git -C "$root" rev-parse --short "$base^{commit}")
basedir="$root/.bench_build/ab/$rev"
if [ ! -f "$basedir/.unpacked" ]; then
	rm -rf "$basedir"
	mkdir -p "$basedir"
	git -C "$root" archive "$rev" | tar -x -C "$basedir"
	touch "$basedir/.unpacked"
fi

# run DIR SEED prints the three end-to-end metrics of one run of DIR's
# benchmark on $workload, space-separated, from the run's last (JSON)
# line.
run() {
	local last
	last=$(bash "$1/bench/run.sh" -workload "$workload" -seed "$2" | tail -n 1)
	case "$last" in
	*'"correct":true'*'"failed":0,'*) ;;
	*) echo "bench-ab: $1 seed $2: failed or incorrect run: $last" >&2; exit 1 ;;
	esac
	for m in wall_s cpu_s setup_s; do
		printf '%s ' "$(printf '%s' "$last" | sed -n "s/.*\"$m\":{\"value\":\([-0-9.eE+]*\).*/\1/p")"
	done
}

for workload in $workloads; do
	pairs="$root/.bench_build/ab/pairs-$rev-$workload.txt"
	: >"$pairs"
	echo "base $rev vs working tree, workload $workload, $n pairs"
	printf '%-5s %-6s %10s %10s %10s %10s %10s %10s\n' pair first \
		wall_base wall_chg cpu_base cpu_chg setup_base setup_chg
	for i in $(seq 1 "$n"); do
		if [ $((i % 2)) -eq 1 ]; then
			first=base
			b=$(run "$basedir" "$i")
			c=$(run "$root" "$i")
		else
			first=change
			c=$(run "$root" "$i")
			b=$(run "$basedir" "$i")
		fi
		read -r bw bc bs <<<"$b"
		read -r cw cc cs <<<"$c"
		echo "$bw $cw $bc $cc $bs $cs" >>"$pairs"
		printf '%-5s %-6s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n' "$i" "$first" "$bw" "$cw" "$bc" "$cc" "$bs" "$cs"
	done

	# Per metric: each side's median and quartiles (linear interpolation
	# between order statistics) and the change's wins.
	awk '
	function quant(a, k, q,   h, lo) {
		h = (k - 1) * q + 1; lo = int(h)
		return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function isort(a, k,   i, j, t) {
		for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	{ k = NR; for (f = 1; f <= 6; f++) v[f, k] = $f }
	END {
		split("wall_s cpu_s setup_s", name, " ")
		printf "\n%-8s %-6s %10s %10s %10s %6s\n", "metric", "side", "q1", "median", "q3", "wins"
		for (m = 1; m <= 3; m++) {
			wins = 0
			for (i = 1; i <= k; i++) {
				b[i] = v[2 * m - 1, i]; c[i] = v[2 * m, i]
				if (c[i] < b[i]) wins++
			}
			isort(b, k); isort(c, k)
			printf "%-8s %-6s %10.4f %10.4f %10.4f\n", name[m], "base", quant(b, k, .25), quant(b, k, .5), quant(b, k, .75)
			printf "%-8s %-6s %10.4f %10.4f %10.4f %3d/%d\n", "", "change", quant(c, k, .25), quant(c, k, .5), quant(c, k, .75), wins, k
		}
	}' "$pairs"
	echo
done
