#!/usr/bin/env bash
# Local CI: exactly what .github/workflows/ci.yml runs.
#
#   ./ci.sh          # fmt check, clippy -D warnings, docs, full test
#                    # suite, repo-benchmark output smoke, bench smokes +
#                    # regression gate against bench/baselines/
#   ./ci.sh fast     # skip the bench smoke and gate
#
# Knobs: BENCH_SAMPLES (default 3), BENCH_GATE=warn to report
# regressions without failing, BENCH_GATE_THRESHOLD (default 1.5),
# CHAOS_ITERS (the chaos-smoke step's seeded fault schedules, default 200
# — the depth gate; the suite's own default under `cargo test` is 40),
# WORKLOAD_ITERS (default 8 seeded workload replays per test in
# tests/workload_determinism.rs; raise for soak runs),
# STRESS_ITERS (default 4 seeded reader/mutator/chaos rounds per test in
# tests/concurrent_stress.rs; raise for soak runs),
# SPEEDUP_ITERS (best-of-N sampling in tests/parallel_speedup.rs; its
# wall-clock assertion only arms on hosts with >= 4 cores).
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

if [[ "${1:-}" != "fast" ]]; then
    echo "==> bench smoke (engine) -> BENCH_engine.json"
    BENCH_SAMPLES="${BENCH_SAMPLES:-3}" BENCH_JSON="$PWD/BENCH_engine.json" \
        cargo bench -q -p explore-bench --bench engine
    echo "==> wrote $(wc -c < BENCH_engine.json) bytes of benchmark records"

    echo "==> bench smoke (cache) -> BENCH_cache.json"
    BENCH_SAMPLES="${BENCH_SAMPLES:-3}" BENCH_JSON="$PWD/BENCH_cache.json" \
        cargo bench -q -p explore-bench --bench cache
    echo "==> wrote $(wc -c < BENCH_cache.json) bytes of benchmark records"

    echo "==> bench smoke (shard) -> BENCH_shard.json"
    BENCH_SAMPLES="${BENCH_SAMPLES:-3}" BENCH_JSON="$PWD/BENCH_shard.json" \
        cargo bench -q -p explore-bench --bench shard
    echo "==> wrote $(wc -c < BENCH_shard.json) bytes of benchmark records"

    echo "==> bench smoke (workload) -> BENCH_workload.json"
    BENCH_SAMPLES="${BENCH_SAMPLES:-3}" BENCH_JSON="$PWD/BENCH_workload.json" \
        cargo bench -q -p explore-bench --bench workload
    echo "==> wrote $(wc -c < BENCH_workload.json) bytes of benchmark records"

    echo "==> bench smoke (serve) -> BENCH_serve.json"
    BENCH_SAMPLES="${BENCH_SAMPLES:-3}" BENCH_JSON="$PWD/BENCH_serve.json" \
        cargo bench -q -p explore-bench --bench serve
    echo "==> wrote $(wc -c < BENCH_serve.json) bytes of benchmark records"

    echo "==> bench-check (engine vs bench/baselines)"
    cargo run -q --release -p explore-bench --bin bench_gate -- \
        BENCH_engine.json bench/baselines/BENCH_engine.json

    echo "==> bench-check (cache vs bench/baselines)"
    cargo run -q --release -p explore-bench --bin bench_gate -- \
        BENCH_cache.json bench/baselines/BENCH_cache.json

    echo "==> bench-check (shard vs bench/baselines)"
    cargo run -q --release -p explore-bench --bin bench_gate -- \
        BENCH_shard.json bench/baselines/BENCH_shard.json

    echo "==> bench-check (workload vs bench/baselines)"
    cargo run -q --release -p explore-bench --bin bench_gate -- \
        BENCH_workload.json bench/baselines/BENCH_workload.json

    echo "==> bench-check (serve vs bench/baselines)"
    cargo run -q --release -p explore-bench --bin bench_gate -- \
        BENCH_serve.json bench/baselines/BENCH_serve.json
fi

echo "==> CI green"
