#!/usr/bin/env bash
# The repo benchmark's one command. Run it from the repo root or anywhere:
#
#   benchmark/run.sh                      every workload once, each in a fresh
#                                         process, results in benchmark/out/
#   benchmark/run.sh --trace              the same, as traced runs: per-layer
#                                         metrics and benchmark/out/trace_*.jsonl
#   benchmark/run.sh --smoke              schema and correctness only, ~2 s each
#   benchmark/run.sh --self-check         interleaved A/A sets, spreads vs bounds
#   benchmark/run.sh --spread             ten seeds per workload, spreads vs bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the form BENCHMARK.json names
#
# --seed N (default 42) applies to every form.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Builds offline from the sources next to this script; in a directory that
# lacks the workspace crates this fails, and so does the run.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/rex-benchmark"

seed=42
mode=all
trace=0
smoke=()
workload=()
seconds=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=("$1" "$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds=("$1" "$2"); shift 2 ;;
    --trace)
      # A flag for the all-workloads form, a 0|1 value for the driver's.
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); shift ;;
    --self-check|--spread) mode="${1#--}"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

run_args=(${seconds[@]+"${seconds[@]}"} --seed "$seed" --trace "$trace" ${smoke[@]+"${smoke[@]}"} --out "$here/out")
case "$mode" in
  all)
    if [ ${#workload[@]} -gt 0 ]; then
      exec "$bin" "${workload[@]}" "${run_args[@]}"
    fi
    status=0
    for name in rex-raw ms-model sim-fleet serve-live; do
      "$bin" --workload "$name" "${run_args[@]}" || status=$?
      echo
    done
    exit "$status"
    ;;
  self-check|spread)
    # Both run every workload, full length, untraced.
    if [ ${#workload[@]} -gt 0 ] || [ ${#smoke[@]} -gt 0 ] || [ "$trace" != 0 ]; then
      echo "run.sh: --$mode takes only --seed and --seconds" >&2; exit 2
    fi
    exec python3 "$here/check.py" "$mode" --bin "$bin" --seed "$seed" ${seconds[@]+"${seconds[@]}"}
    ;;
esac
