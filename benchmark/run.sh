#!/usr/bin/env bash
# The benchmark's single entry point.
#
#   benchmark/run.sh                         all four workloads, end-to-end metrics
#   benchmark/run.sh --traced                ... and the per-layer ledger of each
#   benchmark/run.sh --workload scan_cold    one workload
#   benchmark/run.sh --seed 7 --seconds 5    another seed, another run length
#   benchmark/run.sh --quick                 tiny sizes, < 20 s, checks outputs, gates nothing
#   benchmark/run.sh --repeat 5              A/A study: five sets, spread against the bounds
#
# With --workload and --trace (how the driver calls it) it builds, runs
# that one process and prints its result line last. Every workload runs
# in a process of its own, so peak_rss_mb is per workload.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=()
seed=20150531
seconds=""
trace=""
traced=0
quick=0
repeat=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --quick) quick=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Build with this directory's own manifest and lock file. Cargo's output
# goes to stderr so that a result line stays the last line of stdout.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/explore-benchmark"

run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
extra=()
if [ "$quick" = 1 ]; then
  extra+=(--quick)
  seconds="${seconds:-2}"
fi
seconds="${seconds:-$run_seconds}"

# Driver mode: one workload, one mode, one process.
if [ ${#workloads[@]} -eq 1 ] && [ -n "$trace" ] && [ "$repeat" = 0 ]; then
  exec "$bin" --workload "${workloads[0]}" --seed "$seed" --seconds "$seconds" --trace "$trace" "${extra[@]}"
fi

[ ${#workloads[@]} -gt 0 ] || workloads=(analyst_mixed scan_cold ingest_under_read middleware_insight)
modes=(0)
[ "$traced" = 1 ] && modes=(0 1)
[ -n "$trace" ] && modes=("$trace")

echo "host: $(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -1), $(nproc) cores"
echo "toolchain: $(rustc --version)"
echo "commit: $(git rev-parse --short HEAD 2>/dev/null || echo 'not a git checkout')"
echo "seed: $seed  seconds: $seconds  quick: $quick"

mkdir -p benchmark/out
status=0
sets=$(( repeat > 0 ? repeat : 1 ))
[ "$repeat" -gt 0 ] && rm -f benchmark/out/aa-*.jsonl
for set in $(seq 1 "$sets"); do
  for w in "${workloads[@]}"; do
    for mode in "${modes[@]}"; do
      out=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$mode" "${extra[@]}") || status=1
      if [ "$repeat" -gt 0 ]; then
        echo "$out" | tail -n 1 >> "benchmark/out/aa-$w-$mode.jsonl"
        echo "set $set: $w trace $mode done"
      else
        echo "$out" | sed '$d'
      fi
    done
  done
done
if [ "$repeat" -gt 0 ]; then
  python3 benchmark/aa.py BENCHMARK.json benchmark/out
fi
[ "$status" = 0 ] && echo 'all output checks passed' || echo 'AN OUTPUT CHECK FAILED'
echo '"claim": null'
exit "$status"
