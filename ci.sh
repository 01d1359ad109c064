#!/usr/bin/env bash
# The one CI definition: .github/workflows/ci.yml runs this script and
# nothing else, so a lint added here cannot be missing there.
#
#   ./ci.sh          # lints, fmt check, clippy -D warnings, docs, full
#                    # test suite, chaos smoke, repo-benchmark output
#                    # smoke, same-run overhead check
#   ./ci.sh fast     # skip the overhead check
#
# Knobs: CHAOS_ITERS (the chaos-smoke step's seeded fault schedules,
# default 200 — the depth gate; the suite's own default under
# `cargo test` is 40),
# WORKLOAD_ITERS (default 8 seeded workload replays per test in
# tests/workload_determinism.rs; raise for soak runs),
# STRESS_ITERS (default 4 seeded reader/mutator/chaos rounds per test in
# tests/concurrent_stress.rs; raise for soak runs),
# SPEEDUP_ITERS (best-of-N sampling in tests/parallel_speedup.rs; its
# wall-clock assertion only arms on hosts with >= 4 cores).
#
# Cross-commit performance numbers come from BENCHMARK.json + benchmark/
# (run by the PR driver, ten alternating pairs), never from this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> variant-creep lint (no public *_traced/*_ctx/*_cancellable/*_sharded fns)"
# The engine exposes exactly one implementation per operation, with
# QueryCtx threading tracing/cancellation/faults and ShardPolicy routing
# sharded dispatch internally. Any public fn named *_traced, *_ctx,
# *_cancellable, or *_sharded is a regression to the old
# variant-per-concern API. Allowlist is intentionally empty.
if grep -rnE 'pub (async )?fn [a-zA-Z0-9_]+_(traced|ctx|cancellable|sharded)\b' \
    --include='*.rs' crates/; then
    echo "error: public per-concern variant fn found; thread a QueryCtx instead" >&2
    exit 1
fi

echo "==> shared-read lint (query path stays &self; no Mutex<ExploreDb> outside tests)"
# The engine's query path is `&self` by construction (DESIGN.md §14):
# per-table RwLocks and Arc snapshots inside, shared references outside.
# A `&mut self` receiver creeping back into the engine facade or the
# serving layer reintroduces the global lock this design removed; Drop
# impls are the only legitimate exception. Likewise, wrapping the engine
# in a Mutex anywhere outside tests means some caller stopped trusting
# the internal synchronization — fix the engine, not the call site.
if grep -nE '&mut self' crates/core/src/engine.rs crates/serve/src/*.rs \
    crates/workload/src/runner.rs | grep -vE 'fn drop\(&mut self\)'; then
    echo "error: &mut self receiver on the shared query path; use interior per-table locks" >&2
    exit 1
fi
if grep -rnE 'Mutex<ExploreDb>' --include='*.rs' crates/ src/ examples/; then
    echo "error: Mutex<ExploreDb> outside tests; the engine is internally synchronized" >&2
    exit 1
fi

echo "==> explicit-context lint (no thread-local or address-keyed session state; one config lock)"
# Session overlays travel with the `&ExploreDb` handle and the engine's
# policies live in one `EngineConfig` behind one lock (DESIGN.md §10/§14).
# A `thread_local!`, an engine-address key, or a per-policy `RwLock`
# field is the hidden per-call state that design removed.
if grep -rnE 'thread_local!|SESSION_OVERLAYS|as \*const ExploreDb' --include='*.rs' crates/ src/; then
    echo "error: ambient session state; carry the overlay on the ExploreDb handle" >&2
    exit 1
fi
if grep -nE 'RwLock<(Exec|Cache|Shard|Obs|Error)Policy>' crates/core/src/engine.rs; then
    echo "error: per-policy lock in engine.rs; add the policy to EngineConfig" >&2
    exit 1
fi

echo "==> single-store lint (a table's rows live in its ShardedTable and nowhere else)"
# TableState owns row data through one field, an Arc<ShardedTable> whose
# one-shard case is the registered Arc<Table> itself (DESIGN.md §11/§14).
# A bare table slot beside it, or a "mirror" of anything, is the
# canonical-twin design coming back: two copies, a dual write and a lock
# level to keep them from diverging.
if grep -nE 'RwLock<Arc<Table>>|mirror' crates/core/src/engine.rs; then
    echo "error: second row store in engine.rs; the ShardedTable is the table" >&2
    exit 1
fi

echo "==> one-fan-out lint (one dispatcher, one aggregate pipeline)"
# explore_exec::fan_out is the only place a dispatch path is chosen from
# an ExecPolicy and the only caller of the pool (DESIGN.md §6); a sharded
# aggregate is the executor's aggregate over the shards as parts
# (DESIGN.md §11). A pool call or a policy match arm outside crates/exec,
# or morsel math in crates/shard, is a second dispatcher or a second
# pipeline growing back.
if find crates/*/src src -name '*.rs' -not -path 'crates/exec/src/*' | while read -r f; do
    sed '/#\[cfg(test)\]/q' "$f" | grep -nE 'global_pool\(\)|ExecPolicy::Parallel \{[^}]*\} *(=>|if )' |
        sed "s|^|$f:|" || true
done | grep .; then
    echo "error: dispatch outside explore-exec; call explore_exec::fan_out" >&2
    exit 1
fi
if grep -rnE 'straddle|morsel_rows_for' crates/shard/src/; then
    echo "error: morsel math in crates/shard; hand the shards to run_query_parts" >&2
    exit 1
fi

echo "==> one-executor lint (one scan arm, one aggregate arm, one morsel grid)"
# The query pipeline exists once, in crates/storage/src/query.rs, next to
# the aggregation states it drives (DESIGN.md §6); explore-exec
# contributes a dispatcher, not a pipeline. A second file calling the
# begin/feed/end/absorb protocol or gathering scan rows, a revived
# Query::run_on_selection, or morsel math defined in the executor is a
# second, ulp-different answer growing back.
for call in 'absorb_batch(' '.feed(' 'scan_rows('; do
    files=$(find crates/*/src src -name '*.rs' | while read -r f; do
        # No `grep -q`: its early exit would SIGPIPE sed under pipefail.
        sed '/#\[cfg(test)\]/q' "$f" | grep -F "$call" >/dev/null && echo "$f" || true
    done)
    if [[ "$files" != "crates/storage/src/query.rs" ]]; then
        echo "error: '$call' must have call sites in crates/storage/src/query.rs only; found:" $files >&2
        exit 1
    fi
done
if grep -rnF '.run_on_selection(' --include='*.rs' crates/ ||
    grep -nE 'fn morsel_' crates/exec/src/query.rs; then
    echo "error: second executor; run queries through Query::run or explore_exec::run_query" >&2
    exit 1
fi

echo "==> one-measurement-authority lint (the retired bench harness stays retired)"
# benchmark/ is the only source of a cross-commit number. The Criterion
# shim, the gate binary and their env knobs were deleted; a reference
# creeping back into code, manifests or CI means a second, ungoverned
# measurement system is growing again.
if grep -rn 'criterion\|BENCH_JSON\|BENCH_GATE\|bench_gate' \
    --include='*.rs' --include='*.toml' --include='*.sh' --include='*.yml' \
    --exclude-dir=benchmark --exclude-dir=target --exclude-dir=.git . |
    grep -v "^./ci.sh:.*grep -rn 'criterion"; then
    echo "error: reference to the retired bench harness; measure through benchmark/" >&2
    exit 1
fi

echo "==> public-surface lint (api-surface.txt matches the tree)"
# Every `pub` item of the workspace crates and the umbrella, one line
# each, test modules excluded (each file stops at its first
# #[cfg(test)]). Growth or shrinkage of the public surface is a reviewed
# decision: it shows up as a diff of the committed snapshot.
mkdir -p target
find crates/*/src src -name '*.rs' | while read -r f; do
    sed '/#\[cfg(test)\]/q' "$f" | grep -v '^ *//' | tr -s '\n ' ' ' |
        grep -oE 'pub (use [^;]+;|((const |async |unsafe )*fn|struct|enum|trait|type|const|static|mod) [A-Za-z0-9_]+)' |
        sed "s|^|$f: |" || true
done | LC_ALL=C sort > target/api-surface.txt
if ! diff -u api-surface.txt target/api-surface.txt; then
    echo "error: public surface changed; if intended: cp target/api-surface.txt api-surface.txt" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> cargo test -q"
cargo test -q --workspace

# The chaos-differential suite re-runs as an explicit smoke step so the
# seeded schedule count is pinned and overridable: every iteration's
# faults replay from its iteration number, so a CI failure names the
# exact seed to reproduce locally.
echo "==> chaos smoke (CHAOS_ITERS=${CHAOS_ITERS:-200} seeded fault schedules," \
    "WORKLOAD_ITERS=${WORKLOAD_ITERS:-8} workload replays," \
    "STRESS_ITERS=${STRESS_ITERS:-4} reader/mutator stress rounds)"
CHAOS_ITERS="${CHAOS_ITERS:-200}" WORKLOAD_ITERS="${WORKLOAD_ITERS:-8}" \
    STRESS_ITERS="${STRESS_ITERS:-4}" \
    cargo test -q --test chaos_differential --test cancel_proptests \
    --test shard_differential --test workload_determinism \
    --test serve_differential --test serve_fairness --test concurrent_stress

# The repo benchmark (BENCHMARK.json, benchmark/) as a smoke step: its own
# unit tests, then every workload at a twentieth of the rows for 2 s each.
# Only the output checks count here (a mismatch exits non-zero); the
# timings it prints gate nothing.
echo "==> repo benchmark: unit tests + outputs-only smoke (benchmark/run.sh --quick)"
(cd benchmark && cargo test -q --offline)
benchmark/run.sh --quick

# The overheads a workload benchmark cannot see (tracing on, cancel
# token, deadline, cache probe at 6 000 supersets), as ratios against the
# plain query measured in the same process. No baseline file: the bench
# exits non-zero on its own when an arm is over its ceiling.
if [[ "${1:-}" != "fast" ]]; then
    echo "==> same-run overhead check (cargo bench --bench overheads)"
    cargo bench -q -p explore-bench --bench overheads
fi

echo "==> CI green"
