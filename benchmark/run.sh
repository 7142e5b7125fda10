#!/usr/bin/env bash
# Build the benchmark once, run every workload in its own process (one after
# the other: the box has two cores and each workload uses them), merge the
# results into out/suite.json and print every metric by name with its unit.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload NAME]... [--smoke]
#                    [--out DIR] [--no-lint]
#   benchmark/run.sh --manifest      # regenerate ../BENCHMARK.json
#
# Exit status is non-zero when a build or lint step fails or when any
# workload reports an incorrect output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

seed=42
seconds=10
out="$here/out"
lint=1
manifest=0
extra=()
workloads=()
while (($#)); do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) extra+=(--smoke); shift ;;
    --no-lint) lint=0; shift ;;
    --manifest) manifest=1; shift ;;
    *) echo "unknown flag $1" >&2; exit 2 ;;
    esac
done
((${#workloads[@]})) || workloads=(ingest_soc traverse_soc supersteps_road wire_rmat serve_mix)

cargo_b=(--offline --manifest-path "$here/Cargo.toml")
if ((lint)); then
    # rustfmt finds the repo's rustfmt.toml by walking up from benchmark/src
    cargo fmt --manifest-path "$here/Cargo.toml" -- --check
    cargo clippy "${cargo_b[@]}" --release --all-targets -- -D warnings
fi
cargo build "${cargo_b[@]}" --release
bin="${CARGO_TARGET_DIR:-$here/target}/release/mgpu-e2e-bench"

if ((manifest)); then
    "$bin" --manifest >"$root/BENCHMARK.json"
    echo "wrote $root/BENCHMARK.json"
    exit 0
fi

mkdir -p "$out"
for w in "${workloads[@]}"; do
    for trace in 0 1; do
        echo "== $w --trace $trace" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" \
            "${extra[@]}" >"$out/$w.trace$trace.log"
        tail -n 1 "$out/$w.trace$trace.log" >"$out/$w.trace$trace.json"
    done
done

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$out" "$seed" "$seconds" "$(nproc)" "$(rustc --version)" "$commit" "${workloads[@]}" <<'PY'
import json, sys
out, seed, seconds, nproc, rustc, commit, *workloads = sys.argv[1:]
suite = {"seed": int(seed), "seconds": float(seconds), "nproc": int(nproc), "rustc": rustc,
         "commit": commit, "workloads": {}}
ok = True
for w in workloads:
    e2e = json.load(open(f"{out}/{w}.trace0.json"))
    layers = json.load(open(f"{out}/{w}.trace1.json"))
    merged = {
        "correct": e2e["correct"] and layers["correct"],
        "attempted": e2e["attempted"] + layers["attempted"],
        "failed": e2e["failed"] + layers["failed"],
        "end_to_end": e2e["metrics"],
        "per_layer": layers["metrics"],
    }
    json.dump(merged, open(f"{out}/{w}.json", "w"), indent=1)
    suite["workloads"][w] = merged
    ok &= merged["correct"]
json.dump(suite, open(f"{out}/suite.json", "w"), indent=1)

print(f"nproc {nproc}  {rustc}  commit {commit}  seed {seed}  seconds {seconds}")
for kind in ("end_to_end", "per_layer"):
    names = list(next(iter(suite["workloads"].values()))[kind])
    print(f"\n{kind}")
    print(f"{'metric':<36}{'unit':<10}" + "".join(f"{w:>18}" for w in workloads))
    for n in names:
        cells = [suite["workloads"][w][kind][n] for w in workloads]
        print(f"{n:<36}{cells[0]['unit']:<10}" + "".join(f"{c['value']:>18.6g}" for c in cells))
print("\n" + "  ".join(f"{w}: failed {m['failed']}/{m['attempted']}" for w, m in suite["workloads"].items()))
print(f"wrote {out}/suite.json; Chrome traces: {out}/<workload>.trace.json (chrome://tracing, ui.perfetto.dev)")
sys.exit(0 if ok else 1)
PY
