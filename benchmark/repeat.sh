#!/usr/bin/env bash
# Runs every workload N times (seeds BASE+1 … BASE+N, --trace 0) and prints,
# per end-to-end metric and workload, the median, the quartiles, and the
# spread (q3 - q1) / median beside the metric's bound in BENCHMARK.json —
# the same arithmetic the driver applies. The table it prints is what
# BASELINE.md records.
#
#   bash benchmark/repeat.sh [N=10] [BASE=100] [workload ...]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:-10}"
base="${2:-100}"
shift $(( $# > 2 ? 2 : $# ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(wire_c wire_a path_a local_b)
fi

mkdir -p benchmark/out
log="benchmark/out/repeat-$(date +%Y%m%dT%H%M%S).jsonl"
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$n"); do
        seed=$((base + i))
        echo "repeat: $w seed $seed ($i/$n)" >&2
        result="$(bash benchmark/run.sh --workload "$w" --seed "$seed" --trace 0 | tail -n 1)"
        # Mean steal of the run, from the windows the harness wrote.
        steal="$(python3 - "benchmark/out/windows_$w.jsonl" <<'PY'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
span = sum(r["end_ns"] - r["start_ns"] for r in rows) or 1
print(f'{100 * sum(r["steal"] * (r["end_ns"] - r["start_ns"]) for r in rows) / span:.2f}')
PY
)"
        echo "{\"workload\": \"$w\", \"seed\": $seed, \"steal_pct\": $steal, \"result\": $result}" >>"$log"
    done
done

python3 - "$log" <<'PY'
import json, statistics, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
contract = json.load(open("BENCHMARK.json"))
print(f"runs: {sys.argv[1]}")
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == w]
    bad = [r["seed"] for r in mine if not r["result"]["correct"] or r["result"]["failed"]]
    steal = " ".join(f'{r["steal_pct"]:.1f}' for r in mine)
    print(f"\n## {w}  (n = {len(mine)}; host steal % per run: {steal})")
    if bad:
        print(f"INCORRECT OR FAILED OPS at seeds {bad}")
    print(f'{"metric":<18} {"unit":<5} {"median":>12} {"q1":>12} {"q3":>12} {"spread":>8} {"bound":>6}  verdict')
    for m in contract["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("inf")
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "EXCEEDS BOUND"
        print(f'{m["name"]:<18} {m["unit"]:<5} {median:>12.4g} {q1:>12.4g} {q3:>12.4g} {spread:>8.1%} {m["bound"]:>6.0%}  {verdict}')
PY
