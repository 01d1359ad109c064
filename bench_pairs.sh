#!/usr/bin/env bash
# Same-session performance comparison of two commits through the repo
# benchmark (BENCHMARK.json + benchmark/run.sh).
#
#   ./bench_pairs.sh <base> <change> [workload…]
#   ./bench_pairs.sh --pairs 5 fe9f17f HEAD scan_cold
#   ./bench_pairs.sh --record HEAD~1 HEAD        # ... and append to BENCH_trajectory.jsonl
#
# Both commits are extracted with `git archive` into a fresh directory
# under ${TMPDIR:-/tmp}; each builds its own benchmark/ (offline,
# locked) into its own target directory. Per workload (default: all of
# BENCHMARK.json's), N pairs (default 10) of
#   benchmark/run.sh --workload W --seconds <run_seconds> --trace 0
# alternate between the two builds: odd pairs run the change first, even
# pairs the base. Every run uses the benchmark's default seed, the one its
# pinned output checksums belong to; the seed recorded is the one the
# runs' `workload … seed N …` header lines report. The summary prints,
# per end-to-end metric, both medians, the change's wins by the metric's
# `better` direction, each side's quartiles, and whether the change's
# median is worse than the base's by more than the metric's bound; then
# each side's correct and failed totals. Absolute numbers move from day to day on a shared host,
# so only pairs from one session compare.
#
# --record appends one JSON line per workload to BENCH_trajectory.jsonl:
# both SHAs, nproc, CPU model, seed, N, per-metric medians and wins.
set -euo pipefail
cd "$(dirname "$0")"

pairs=10
record=0
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --record) record=1; shift ;;
    -*) echo "bench_pairs.sh: unknown option $1" >&2; exit 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
if [ ${#args[@]} -lt 2 ]; then
  echo "usage: bench_pairs.sh [--pairs N] [--record] <base> <change> [workload…]" >&2
  exit 2
fi
base=$(git rev-parse --verify "${args[0]}^{commit}")
change=$(git rev-parse --verify "${args[1]}^{commit}")
workloads=("${args[@]:2}")
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads < <(python3 -c \
    'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
run_seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
mkdir -p "$work/raw"
# The two trees and their builds go at exit; the raw result lines stay.
trap 'rm -rf "$work/base" "$work/change"' EXIT
for side in base change; do
  sha=${!side}
  mkdir -p "$work/$side"
  git archive "$sha" | tar -x -C "$work/$side"
  echo "building $side ${sha:0:7}" >&2
  (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/target" \
    cargo build -q --release --offline --locked --manifest-path benchmark/Cargo.toml)
done

# One run of one side; its result line (the last line run.sh prints)
# goes to raw/<side>-<workload>.jsonl and the seed its header line names
# to raw/seeds. A run that printed no result line is recorded as one
# that was not correct.
run_one() {
  local side=$1 w=$2 out line
  out=$(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/target" \
    benchmark/run.sh --workload "$w" --seconds "$run_seconds" --trace 0 2>/dev/null) || true
  line=$(tail -n 1 <<<"$out")
  [[ "$line" == "{"* ]] || line='{"correct": false, "failed": null, "metrics": {}}'
  echo "$line" >> "$work/raw/$side-$w.jsonl"
  sed -n 's/^workload .* seed \([0-9]*\) .*/\1/p' <<<"$out" >> "$work/raw/seeds"
}

for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then order=(change base); else order=(base change); fi
    for side in "${order[@]}"; do run_one "$side" "$w"; done
    echo "$w: pair $i/$pairs done" >&2
  done
done

touch "$work/raw/seeds"
seed=$(sort -u "$work/raw/seeds" | paste -sd, -)
echo "base ${base:0:7}  change ${change:0:7}  seed ${seed:-?}  pairs $pairs  seconds $run_seconds"
echo "host: $(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -1), $(nproc) cores"
echo "raw result lines: $work/raw"
python3 - "$work/raw" "$base" "$change" "$seed" "$pairs" "$record" "${workloads[@]}" <<'EOF'
import json, os, statistics, subprocess, sys, time

raw, base, change, seed, pairs, record = sys.argv[1:7]
workloads = sys.argv[7:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
            if l.startswith("model name")), None)
nproc = int(subprocess.check_output(["nproc"]).strip())
# One seed if every run reported the same one, else none.
seed = int(seed) if seed.isdigit() else None


def load(side, w):
    with open(os.path.join(raw, f"{side}-{w}.jsonl")) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    return statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else [xs[0], xs[0]]


for w in workloads:
    runs = {side: load(side, w) for side in ("base", "change")}
    print(f"\n{w}")
    print(f"  {'metric':<16}{'base':>11}{'change':>11}{'wins':>7}"
          f"{'base q1..q3':>22}{'change q1..q3':>22}  outside bound")
    line = {"base": base, "change": change, "workload": w, "nproc": nproc,
            "cpu": cpu, "seed": seed, "pairs": int(pairs),
            "date": time.strftime("%Y-%m-%d"), "metrics": {}}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs_ok = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                    for b, c in zip(runs["base"], runs["change"])
                    if name in b["metrics"] and name in c["metrics"]]
        if not pairs_ok:
            print(f"  {name:<16}  no result lines")
            continue
        bs, cs = [p[0] for p in pairs_ok], [p[1] for p in pairs_ok]
        mb, mc = statistics.median(bs), statistics.median(cs)
        wins = sum((c < b) if lower else (c > b) for b, c in pairs_ok)
        worse = ((mc - mb) if lower else (mb - mc)) / abs(mb) if mb else 0.0
        outside = worse > m["bound"]
        qb, qc = quartiles(bs), quartiles(cs)
        print(f"  {name:<16}{mb:>11.3f}{mc:>11.3f}{wins:>4}/{len(pairs_ok):<2}"
              f"{qb[0]:>11.3f}..{qb[1]:<9.3f}{qc[0]:>11.3f}..{qc[1]:<9.3f}"
              f"  {'YES' if outside else 'no'} ({worse:+.1%} vs {m['bound']:.0%})")
        line["metrics"][name] = {"base_median": mb, "change_median": mc, "change_wins": wins}
    for side in ("base", "change"):
        correct = sum(r.get("correct") is True for r in runs[side])
        failed = [r.get("failed") for r in runs[side]]
        failed = None if None in failed else sum(failed)
        print(f"  {side}: correct {correct}/{len(runs[side])}, failed {failed}")
        line[f"{side}_correct"] = f"{correct}/{len(runs[side])}"
        line[f"{side}_failed"] = failed
    if record == "1":
        with open("BENCH_trajectory.jsonl", "a") as f:
            f.write(json.dumps(line) + "\n")
EOF
[ "$record" = 0 ] || echo "appended ${#workloads[@]} line(s) to BENCH_trajectory.jsonl"
