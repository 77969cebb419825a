#!/usr/bin/env bash
# Runs the benchmark as two sets of runs at one commit and prints, for each
# workload and end-to-end metric, each set's median, quartiles and spread
# next to the metric's bound from BENCHMARK.json. The spread is
# (q3 - q1) / median, with the quartiles of Python's
# statistics.quantiles(values, n=4).
#
#   bash bench/stability.sh [-runs N] [-seed S] [-vary] [-out FILE]
#
# Run it from the repository root. Every workload runs for BENCHMARK.json's
# run_seconds. Run i of each set uses seed S, or S+i with -vary; both sets
# use the same seeds. Defaults: 5 runs, seed 20160618.
#
# A gated (host) metric is flagged when a set's spread is wider than its
# bound, or when the second set's median is worse than the first's by more
# than the bound. Every other metric is simulated: it, and the identity
# hash, are flagged when two runs with the same seed disagree at all.
# -out writes the first set's medians and quartiles, the medians of the raw
# host measurements behind them, and the machine they were measured on, as
# JSON. The exit status is 1 when anything is flagged.
set -euo pipefail

runs=5 seed=20160618 vary=0 out=""
while [ $# -gt 0 ]; do
	case "$1" in
	-runs) runs=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-vary) vary=1; shift ;;
	-out) out=$2; shift 2 ;;
	*) echo "stability.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
records="$PWD/.bench_build/stability"
rm -rf "$records"
mkdir -p "$records"

for n in 1 2; do
	for w in $workloads; do
		for i in $(seq 0 $((runs - 1))); do
			s=$((seed + vary * i))
			echo "set $n  $w  seed $s" >&2
			# The record is the next-to-last line; the summary is the last.
			bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 |
				tail -n 2 | head -n 1 >>"$records/set$n.jsonl"
		done
	done
done

python3 - "$records" "$out" <<'EOF'
import json, statistics, sys

records, out = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
sets = [[json.loads(l) for l in open(f"{records}/set{i}.jsonl")] for i in (1, 2)]

def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")

flagged = False
baseline = {}
print(f"{'workload':15} {'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
for w in [w["name"] for w in spec["workloads"]]:
    runs = [[r for r in s if r["workload"] == w] for s in sets]
    if not runs[0]:
        continue
    baseline[w] = {"identity": runs[0][0]["identity"], "seed": runs[0][0]["seed"], "metrics": {}}
    for name in sorted(runs[0][0]["metrics"]):
        unit = runs[0][0]["metrics"][name]["unit"]
        if name in bounds:
            m = bounds[name]
            medians = []
            for i, rs in enumerate(runs):
                q1, q2, q3, spread = stats([r["metrics"][name]["value"] for r in rs])
                medians.append(q2)
                flag = " SPREAD" if spread > m["bound"] else ""
                if i == 0:
                    baseline[w]["metrics"][name] = {"median": q2, "q1": q1, "q3": q3, "unit": unit}
                else:
                    worse = (medians[0] - q2) / medians[0] if m["better"] == "higher" else (q2 - medians[0]) / medians[0]
                    if worse > m["bound"]:
                        flag += f" WORSE {worse:.3f}"
                flagged |= bool(flag)
                print(f"{w:15} {name:16} {i+1:>3} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.2f}{flag}")
        else:
            values = {(r["seed"], r["metrics"][name]["value"]) for s in runs for r in s}
            seeds = {seed for seed, _ in values}
            flag = "" if len(values) == len(seeds) else " DIFFERS"
            flagged |= bool(flag)
            v = runs[0][0]["metrics"][name]["value"]
            baseline[w]["metrics"][name] = {"value": v, "unit": unit}
            print(f"{w:15} {name:16} {'all':>3} {v:12.6g} {'exact':>12} {'':12} {'':8} {0:6.2f}{flag}")
    baseline[w]["raw_median"] = {name: {"value": statistics.median(r["raw"][name]["value"] for r in runs[0]),
                                        "unit": runs[0][0]["raw"][name]["unit"]} for name in runs[0][0]["raw"]}
    ids = {(r["seed"], r["identity"]) for s in runs for r in s}
    flag = "" if len(ids) == len({seed for seed, _ in ids}) else " DIFFERS"
    flagged |= bool(flag)
    print(f"{w:15} {'identity':16} {'all':>3} {runs[0][0]['identity']:>12}{flag}")

if out:
    first = sets[0][0]
    json.dump({"runs": len(sets[0]) // len(baseline),
               "num_cpu": first["num_cpu"], "gomaxprocs": first["gomaxprocs"],
               "go_version": first["go_version"], "workloads": baseline},
              open(out, "w"), indent=1, sort_keys=True)
sys.exit(1 if flagged else 0)
EOF
