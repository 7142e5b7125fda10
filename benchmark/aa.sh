#!/usr/bin/env bash
# A/A and A/B check of the end-to-end metrics against the bounds in
# BENCHMARK.json.
#
#   benchmark/aa.sh [--pairs N] [--seconds S] [--a ROOT] [--b ROOT]
#                   [--workload NAME]... [--out DIR]
#
# Builds the benchmark in ROOT_A and ROOT_B (repo roots; both default to this
# checkout, which makes the run an A/A check of the benchmark itself), then
# for pair i = 1..N runs every workload with --seed i from both sides,
# alternating which side goes first. Per workload and metric it prints each
# side's median, quartiles and spread (IQR / median) and fails when
#   * B's median is worse than A's by more than the metric's bound
#     (A/A: in either direction), or
#   * the two roots are the same code and a simulated metric (sim_ms,
#     wire_bytes, sim_peak_mem_mb) differs at any seed: those repeat exactly.
# A spread wider than the bound is reported as "unresolved", not as a pass.
# Later PRs run it as  aa.sh --pairs 10 --a <parent checkout> --b <change>.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
pairs=2
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
a="$root"
b="$root"
out="$here/out/aa"
workloads=()
while (($#)); do
    case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --a) a="$(cd "$2" && pwd)"; shift 2 ;;
    --b) b="$(cd "$2" && pwd)"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "unknown flag $1" >&2; exit 2 ;;
    esac
done
((${#workloads[@]})) || workloads=(ingest_soc traverse_soc supersteps_road wire_rmat serve_mix)

build() { # each root builds into its own target directory
    (cd "$1" && CARGO_TARGET_DIR="$1/benchmark/target" cargo build --offline --release \
        --manifest-path benchmark/Cargo.toml >&2)
    echo "$1/benchmark/target/release/mgpu-e2e-bench"
}
bin_a="$(build "$a")"
bin_b="$bin_a"
[[ "$a" == "$b" ]] || bin_b="$(build "$b")"

mkdir -p "$out"
run() { # side root bin workload seed
    (cd "$2" && "$3" --workload "$4" --seed "$5" --seconds "$seconds" --trace 0 --out "$out") |
        tail -n 1 >"$out/$4.$1.$5.json"
}
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        echo "== $w pair $i/$pairs" >&2
        if ((i % 2)); then
            run a "$a" "$bin_a" "$w" "$i"; run b "$b" "$bin_b" "$w" "$i"
        else
            run b "$b" "$bin_b" "$w" "$i"; run a "$a" "$bin_a" "$w" "$i"
        fi
    done
done

python3 - "$out" "$pairs" "$([[ "$a" == "$b" ]] && echo same || echo differ)" "$a/BENCHMARK.json" \
    "${workloads[@]}" <<'PY'
import json, statistics, sys
out, pairs, same, manifest, *workloads = sys.argv[1:]
pairs, same = int(pairs), same == "same"
defs = {m["name"]: m for m in json.load(open(manifest))["end_to_end"]}
exact = {"sim_ms", "wire_bytes", "sim_peak_mem_mb"}
bad = []

def summary(xs):
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med] * 3
    return med, q[0], q[2], (q[2] - q[0]) / med if med else 0.0

for w in workloads:
    runs = {s: [json.load(open(f"{out}/{w}.{s}.{i}.json")) for i in range(1, pairs + 1)] for s in "ab"}
    for s in "ab":
        for i, r in enumerate(runs[s], 1):
            if not r["correct"]:
                bad.append(f"{w}: side {s} seed {i} reported incorrect output ({r['failed']}/{r['attempted']})")
    print(f"\n{w}")
    print(f"{'metric':<18}{'unit':<5}{'bound':>6}{'A median':>14}{'A spread':>10}{'B median':>14}{'B spread':>10}{'B vs A':>9}  verdict")
    for name, d in defs.items():
        va = [r["metrics"][name]["value"] for r in runs["a"]]
        vb = [r["metrics"][name]["value"] for r in runs["b"]]
        (ma, _, _, sa), (mb, _, _, sb) = summary(va), summary(vb)
        sign = 1.0 if d["better"] == "lower" else -1.0
        worse = sign * (mb - ma) / ma if ma else 0.0
        verdict = "ok"
        if same and name in exact and va != vb:
            verdict = "FAIL: simulated metric differs between runs of the same code and seed"
        elif worse > d["bound"] or (same and -worse > d["bound"]):
            verdict = "FAIL: medians differ by more than the bound"
        elif name != "setup_s" and max(sa, sb) > d["bound"]:
            verdict = "unresolved: spread wider than the bound"
        if verdict.startswith("FAIL"):
            bad.append(f"{w}.{name}: {verdict}")
        print(f"{name:<18}{d['unit']:<5}{d['bound']:>6.2f}{ma:>14.6g}{sa:>10.4f}{mb:>14.6g}{sb:>10.4f}{worse:>+9.4f}  {verdict}")

print()
for line in bad:
    print(line)
print("aa: " + ("FAILED" if bad else "ok") + f" ({pairs} pair(s) per workload, spread = IQR / median over the pairs' seeds)")
sys.exit(1 if bad else 0)
PY
