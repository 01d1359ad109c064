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
# default 200 — the depth gate; under `cargo test` the seeded chaos
# loop's exec stream (chaos_differential) defaults to 40 and its shard
# stream (shard_differential) to 150, and chaos_differential's other
# loops to 40),
# WORKLOAD_ITERS (default 8 seeded workload replays per test in
# tests/workload_determinism.rs; raise for soak runs),
# STRESS_ITERS (default 4 seeded reader/mutator/chaos rounds per test in
# tests/concurrent_stress.rs; raise for soak runs),
# SPEEDUP_ITERS (best-of-N sampling in tests/parallel_differential.rs; its
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
# an ExecPolicy and the only place helper threads start (DESIGN.md §6); a
# sharded aggregate is the executor's aggregate over the shards as parts
# (DESIGN.md §11). A worker pool or a policy match arm outside
# crates/exec, or morsel math in crates/shard, is a second dispatcher or
# a second pipeline growing back.
if find crates/*/src src -name '*.rs' -not -path 'crates/exec/src/*' | while read -r f; do
    sed '/#\[cfg(test)\]/q' "$f" | grep -nE 'ExecPool|global_pool|ExecPolicy::Parallel \{[^}]*\} *(=>|if )' |
        sed "s|^|$f:|" || true
done | grep .; then
    echo "error: dispatch outside explore-exec; call explore_exec::fan_out" >&2
    exit 1
fi
if grep -rnE 'straddle|morsel_rows_for' crates/shard/src/; then
    echo "error: morsel math in crates/shard; hand the shards to run_query_parts" >&2
    exit 1
fi

echo "==> one-crack-kernel lint (CrackerColumn is the only cracker index)"
# explore_cracking::CrackerColumn (crates/cracking/src/cracker.rs) is the
# one crack kernel: stochastic pivots, hybrid partitions and concurrent
# locking are built around it (DESIGN.md §2). A boundary-value → position
# map anywhere else is a second piece index and crack loop growing back.
# Test modules (each file stops at its first #[cfg(test)]) are not
# checked.
if find crates/*/src -name '*.rs' -not -path crates/cracking/src/cracker.rs | while read -r f; do
    sed '/#\[cfg(test)\]/q' "$f" | grep -nF 'BTreeMap<i64, usize>' | sed "s|^|$f:|" || true
done | grep .; then
    echo "error: cracker index outside crates/cracking/src/cracker.rs; build on CrackerColumn" >&2
    exit 1
fi

echo "==> unsafe-confined lint (the tracer's span buffer is the only unsafe code)"
# fan_out runs on scoped threads and needs no unsafe (DESIGN.md §5/§6).
# The one exception is the tracer's lock-free span buffer, whose safety
# argument is written next to it. Comment lines and test modules (each
# file stops at its first #[cfg(test)]) are not checked.
if find crates/*/src src -name '*.rs' -not -path crates/obs/src/tracer.rs | while read -r f; do
    sed '/#\[cfg(test)\]/q' "$f" | grep -nE '^[^/]*\bunsafe\b' | sed "s|^|$f:|" || true
done | grep .; then
    echo "error: unsafe outside crates/obs/src/tracer.rs; use safe std primitives" >&2
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

echo "==> one-fold lint (the pipeline folds each row for its aggregate function only)"
# The pipeline's row loop folds with the crate-private
# Accumulator::fold(func, x), which keeps only the fields that
# function's finish reads (DESIGN.md §6). A full Welford `.update(` in
# crates/storage/src/query.rs is a division per row per aggregate
# growing back; the approximate layers, outside it, keep calling update.
# The test module (the file stops at its first #[cfg(test)]) is not
# checked.
if sed '/#\[cfg(test)\]/q' crates/storage/src/query.rs | grep -nF '.update(' |
    sed 's|^|crates/storage/src/query.rs:|' | grep .; then
    echo "error: Accumulator::update in the query pipeline; fold with Accumulator::fold" >&2
    exit 1
fi

echo "==> utf8-seam lint (only explore-storage knows how a string column is laid out)"
# Outside crates/storage a string column is read through Column::str_at,
# Column::strs and Column::heap_bytes, and grouped through
# explore_storage::Dictionary (DESIGN.md §4). A match on Column::Utf8 or
# a borrowed &[String] elsewhere is one more site a change of the string
# representation has to edit. Test modules (each file stops at its first
# #[cfg(test)]) are not checked.
if find crates/*/src src examples -name '*.rs' -not -path 'crates/storage/*' | while read -r f; do
    sed '/#\[cfg(test)\]/q' "$f" | grep -nE 'Column::Utf8|as_utf8' | sed "s|^|$f:|" || true
done | grep .; then
    echo "error: string column layout read outside crates/storage; use Column::str_at/strs/heap_bytes" >&2
    exit 1
fi

echo "==> one-walk lint (one seeded row walk, one group interner for the approximate layers)"
# Online aggregation, ordered bars and SeeDB's pruned phases consume rows
# in one seeded order, explore_aqp::SeededWalk (crates/aqp/src/walk.rs),
# and every approximate layer groups on explore_storage::Dictionary codes
# (DESIGN.md §4), as do the facet counts of crates/explore. A shuffle
# outside the walk, or a group map or counter keyed on strings, is a
# private row loop growing back.
if find crates/aqp/src crates/viz/src -name '*.rs' -not -path crates/aqp/src/walk.rs |
    while read -r f; do
        sed '/#\[cfg(test)\]/q' "$f" | grep -nF '.shuffle(' | sed "s|^|$f:|" || true
    done | grep .; then
    echo "error: shuffle outside crates/aqp/src/walk.rs; walk rows with explore_aqp::SeededWalk" >&2
    exit 1
fi
if grep -rnE 'HashMap<(String|&str), Accumulator>|HashMap<String, \[f64|HashMap<&str, usize>' \
    crates/aqp/src crates/viz/src crates/sampling/src crates/explore/src; then
    echo "error: string-keyed group map; intern groups with explore_storage::Dictionary" >&2
    exit 1
fi

echo "==> one-predicate-kernel lint (the bitmap kernel is the only predicate evaluator)"
# Whether a row satisfies a predicate is decided in one place: the u64
# bitmap kernel of crates/storage/src/predicate.rs, cmp_bits and
# range_bits folded by eval_bits (DESIGN.md §6). Selections, bool masks
# and id lists are views of its bitmap, and tests/common/oracle.rs is
# the reference the tests hold it to. A third Int64 column arm in that
# file (its test module, from the first #[cfg(test)], is not checked),
# or a row-at-a-time or Vec<bool> evaluator anywhere under crates, is a
# second predicate semantics growing back.
arms=$(sed '/#\[cfg(test)\]/q' crates/storage/src/predicate.rs | grep -cF 'Column::Int64(' || true)
if [[ "$arms" != 2 ]]; then
    echo "error: $arms Column::Int64 arms in crates/storage/src/predicate.rs, want 2 (cmp_bits, range_bits)" >&2
    exit 1
fi
if grep -rnE 'fn (matches_row|value_cmp|cmp_mask|range_mask)\b' --include='*.rs' crates/*/src; then
    echo "error: second predicate evaluator; evaluate through Predicate's bitmap kernel" >&2
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

echo "==> dead-pub lint (every public fn has a caller outside its own file)"
# A `pub fn` of target/api-surface.txt (names of 4+ characters) must
# appear as a word in some other file: in the non-test part of a file
# under crates/*/src, src, benchmark/src, examples or crates/bench/benches
# (each file stops at its first #[cfg(test)]), or anywhere in a file
# under tests/. Comment lines are not callers. A function only its own
# file calls is private; one only its own unit tests call is dead code.
# Names are matched, not resolved, so two functions sharing a name count
# as callers of each other. No allow-list.
dead=$(awk -v surface=target/api-surface.txt '
    FNR == 1 { cut = 0; file = (FILENAME ~ /^tests\//) ? "tests/" : FILENAME }
    cut || /^[ \t]*\/\// { next }
    {
        if (file != "tests/" && index($0, "#[cfg(test)]")) cut = 1
        n = split($0, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (length(w[i]) < 4 || (w[i], file) in seen) continue
            seen[w[i], file] = 1
            files[w[i]]++
            last[w[i]] = file
        }
    }
    END {
        while ((getline line < surface) > 0) {
            if (line !~ /: pub (const |async |unsafe )*fn /) continue
            f = line; sub(/: .*/, "", f)
            name = line; sub(/.* fn /, "", name)
            if (length(name) >= 4 && (files[name] == 0 || (files[name] == 1 && last[name] == f)))
                print line
        }
    }' $(find crates/*/src src benchmark/src examples crates/bench/benches tests -name '*.rs' | LC_ALL=C sort))
if [[ -n "$dead" ]]; then
    echo "$dead" >&2
    echo "error: public fn with no caller outside its own file; delete it or make it private" >&2
    exit 1
fi

echo "==> test-helpers lint (shared test helpers live in tests/common/ only)"
# The suites share one copy of the chaos depth knob, the fault schedule,
# the roomy cache, the table sizes and the bitwise comparison
# (tests/common/mod.rs). A second definition in a suite is a copy that
# can drift from the one the differential matrix runs.
if grep -nE 'fn (chaos_iters|random_schedule|roomy_policy|table_sizes|assert_bitwise_eq)\b' tests/*.rs; then
    echo "error: shared test helper defined in a suite; use the one in tests/common/" >&2
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
    cargo test -q --test chaos_differential --test shard_differential \
    --test cancel_proptests --test workload_determinism --test serve_fairness \
    --test concurrent_stress

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
