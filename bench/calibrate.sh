#!/usr/bin/env bash
# Measures the run-to-run spread the bounds in BENCHMARK.json are set from.
# Runs every workload untraced once per set, each set with its own seed and
# with the workload order reversed on every other set, then prints for each
# workload and end-to-end metric the median, the interquartile range over
# the median (the spread BENCHMARK.json's bounds must cover) and
# (max-min)/median. Run it from the repository root on an otherwise idle
# machine:
#
#   bash bench/calibrate.sh [sets=10] [seconds=15] [first seed=1]
#
# Results accumulate in .bench_build/calibrate/results.jsonl. Needs python3.
set -euo pipefail

sets=${1:-10}
seconds=${2:-15}
seed0=${3:-1}
out=.bench_build/calibrate
mkdir -p "$out"
results="$out/results.jsonl"
: >"$results"

workloads=(serve-json serve-delta sim-eval train-predict train-rl)
for ((s = 0; s < sets; s++)); do
	order=("${workloads[@]}")
	if ((s % 2 == 1)); then
		order=()
		for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
			order+=("${workloads[i]}")
		done
	fi
	seed=$((seed0 + s))
	for w in "${order[@]}"; do
		line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$line" >>"$results"
		echo "set $((s + 1))/$sets $w seed $seed done" >&2
	done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

runs = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    for name, m in r["result"]["metrics"].items():
        runs.setdefault((r["workload"], name), []).append(m["value"])

print(f"{'workload':14} {'metric':17} {'runs':>4} {'median':>11} {'IQR/median':>11} {'range/median':>13}")
for (w, name), vs in sorted(runs.items()):
    med = statistics.median(vs)
    iqr = 0.0
    if len(vs) >= 2:
        q = statistics.quantiles(vs, n=4)
        iqr = (q[2] - q[0]) / med
    print(f"{w:14} {name:17} {len(vs):4d} {med:11.4g} {100 * iqr:10.2f}% {100 * (max(vs) - min(vs)) / med:12.2f}%")
EOF
