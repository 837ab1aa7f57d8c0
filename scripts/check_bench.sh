#!/usr/bin/env bash
# Validate the BENCH_*.json trajectory files and guard the serving path
# against performance regressions.
#
# The authoritative field-by-field schema for all three files (and the
# list of invariants enforced here) is docs/BENCH_SCHEMA.md.
#
# Checks, in order:
#   1. every expected BENCH_*.json exists, is non-empty, and is a flat
#      JSON object containing its required numeric keys;
#   2. the freshly-emitted BENCH_inference.json cached-hit cost is within
#      TOLERANCE x the committed baseline (default 3x -- generous, since
#      CI hosts differ; the goal is catching order-of-magnitude
#      regressions on the O(1) serving path, not noise);
#   3. the cold-tune cost (cold_serial_s_per_query) is within
#      COLD_TOLERANCE x the committed baseline (default 5x -- extra
#      generous: cold tunes are seconds-scale and noisy CI hosts swing
#      wall-clock harder there than on the nanosecond cached path);
#   4. the batched serving throughput (batched_qps, which now flows
#      through the TuneService ticket path) stays within TOLERANCE of
#      the committed BENCH_serving.json baseline -- qps is
#      higher-is-better, so the guard is fresh >= baseline / tolerance;
#   5. the trace-driven load gate: BENCH_load.json must show the SLO
#      defenses firing (shed_rate > 0), timeouts bounded, ordered
#      percentiles (p50 <= p99 <= p999), and load_qps within TOLERANCE
#      of the committed baseline;
#   6. the self-healing gate: BENCH_serving.json must show the
#      quarantine->repair cycle completing (repair_upgrades >= 1) and a
#      degraded-free steady state (degraded_rate == 0);
#   7. the sparse-family gate: BENCH_sparse.json must show the cascade
#      agreeing with the exhaustive sweep on at least one bench matrix
#      (sparse_choice_matches_exhaustive >= 1 -- a correctness bit, not
#      a timing) and the sparse cached-hit cost (sparse_cached_hit_ns)
#      within TOLERANCE of the committed baseline;
#   8. the contended-cache gate: BENCH_micro.json must carry the
#      reader-contention sweep (hit_qps_1t / hit_qps_nt / hit_threads /
#      hit_scaling) and the single-thread hit throughput (hit_qps_1t)
#      must stay within TOLERANCE of the committed baseline. The
#      scaling ratio itself is recorded but not gated: CI hosts are
#      often single-core, where the ratio measures the scheduler, not
#      the cache.
#
# Usage:
#   scripts/check_bench.sh [--baseline <file>] [--serving-baseline <file>]
#                          [--load-baseline <file>] [--sparse-baseline <file>]
#                          [--micro-baseline <file>]
#                          [--tolerance <factor>] [--cold-tolerance <factor>]
#
# With no --*-baseline, the committed BENCH_inference.json /
# BENCH_serving.json / BENCH_load.json / BENCH_sparse.json /
# BENCH_micro.json are read from git (origin's default branch, falling
# back to HEAD), so the script works unchanged in CI and locally after
# `cargo bench -p isaac-bench --bench inference --bench serving --bench micro --bench load --bench sparse`.

set -u

cd "$(dirname "$0")/.."

TOLERANCE=3
COLD_TOLERANCE=5
BASELINE=""
SERVING_BASELINE=""
LOAD_BASELINE=""
SPARSE_BASELINE=""
MICRO_BASELINE=""
while [ $# -gt 0 ]; do
    case "$1" in
        --baseline) BASELINE="$2"; shift 2 ;;
        --serving-baseline) SERVING_BASELINE="$2"; shift 2 ;;
        --load-baseline) LOAD_BASELINE="$2"; shift 2 ;;
        --sparse-baseline) SPARSE_BASELINE="$2"; shift 2 ;;
        --micro-baseline) MICRO_BASELINE="$2"; shift 2 ;;
        --tolerance) TOLERANCE="$2"; shift 2 ;;
        --cold-tolerance) COLD_TOLERANCE="$2"; shift 2 ;;
        *) echo "usage: $0 [--baseline <file>] [--serving-baseline <file>] [--load-baseline <file>] [--sparse-baseline <file>] [--micro-baseline <file>] [--tolerance <factor>] [--cold-tolerance <factor>]" >&2; exit 2 ;;
    esac
done

fail=0
say() { echo "check_bench: $*"; }
die() { say "FAIL: $*"; fail=1; }

# All temp files funnel through one cleanup registered ONCE: a second
# `trap ... EXIT` silently replaces the first (the old bug here left
# whichever baseline registered first to leak when the other's trap
# won), so baselines append to a plain string instead of re-trapping.
# (A string, not an array: empty-array expansion trips `set -u` on
# bash < 4.4.)
TMP_FILES=""
cleanup() {
    # shellcheck disable=SC2086 -- mktemp paths contain no spaces.
    [ -n "$TMP_FILES" ] && rm -f $TMP_FILES
}
trap cleanup EXIT

# tmp_baseline -> prints a fresh temp path tracked for cleanup.
tmp_baseline() {
    t=$(mktemp)
    TMP_FILES="$TMP_FILES $t"
    echo "$t"
}

# fetch_baseline NAME DEST -> git-show NAME into DEST from the first ref
# that has it; prints the ref, or nothing if none do.
fetch_baseline() {
    for ref in origin/main origin/master HEAD; do
        if git show "$ref:$1" > "$2" 2>/dev/null; then
            echo "$ref"
            return
        fi
    done
}

# json_num FILE KEY -> prints the numeric value of "KEY": <num>, or
# nothing if the key is missing/non-numeric.
json_num() {
    sed -n "s/^[[:space:]]*\"$2\"[[:space:]]*:[[:space:]]*\(-\{0,1\}[0-9][0-9.eE+-]*\).*/\1/p" "$1" | head -n1
}

# validate FILE KEY... -> structural + per-key checks.
validate() {
    file="$1"; shift
    if [ ! -s "$file" ]; then
        die "$file is missing or empty"
        return
    fi
    # A flat object: first line '{', last line '}'.
    first=$(head -n1 "$file" | tr -d '[:space:]')
    last=$(tail -n1 "$file" | tr -d '[:space:]')
    if [ "$first" != "{" ] || [ "$last" != "}" ]; then
        die "$file is not a JSON object (starts '$first', ends '$last')"
        return
    fi
    for key in "$@"; do
        val=$(json_num "$file" "$key")
        if [ -z "$val" ]; then
            die "$file: required numeric key \"$key\" missing or malformed"
        fi
    done
    say "OK: $file has all required keys"
}

validate BENCH_inference.json \
    threads cold_serial_s_per_query cold_parallel_s_per_query \
    parallel_speedup cached_s_per_query cache_hits cache_misses \
    cold_cascade_s_per_query cascade_speedup cascade_choice_matches \
    legality_s features_s predict_s topk_s rebench_s

validate BENCH_serving.json \
    threads shards batch_size one_at_a_time_qps batched_qps \
    batch_speedup dedup_ratio single_flight_led single_flight_joined \
    leader_panics cold_tune_s warm_start_s warm_start_speedup warm_seeded \
    evictions post_evict_hit_rate post_evict_hit_rate_lru \
    snapshot_files snapshot_entries restored_cold_tunes deadline_timed_out \
    wal_full_rewrite_bytes wal_bytes_per_interval wal_compactions \
    wal_records_replayed wal_recovery_s wal_restored_cold_tunes \
    async_in_flight async_unique_cold async_cold_wall_s \
    async_queue_latency_s async_cached_qps \
    degraded_rate breaker_opens repair_upgrades heal_wall_s

validate BENCH_micro.json \
    mul_bt_naive_s mul_bt_tiled_s mul_bt_naive_gflops \
    mul_bt_tiled_gflops mul_bt_tiled_speedup \
    hit_qps_1t hit_qps_nt hit_threads hit_scaling

validate BENCH_load.json \
    load_p50_s load_p99_s load_p999_s load_hit_rate \
    load_timeout_rate load_shed_rate load_tenants load_qps

validate BENCH_sparse.json \
    threads sparse_matrices sparse_space_points sparse_total_nnz \
    sparse_cold_serial_s_per_query sparse_cold_s_per_query \
    sparse_cold_cascade_s_per_query sparse_choice_matches_exhaustive \
    sparse_cached_hit_ns sparse_cached_speedup_vs_cold \
    sparse_cache_hits sparse_cache_misses sparse_spmv_s

# The cascade quality guard is a correctness bit, not a timing: fail
# outright if the benchmark saw the cascade change a tuning decision.
# (The cascade is on by default in TrainOptions since PR 4, so this
# guard now covers the production path, not an opt-in.)
cascade_ok=$(json_num BENCH_inference.json cascade_choice_matches)
if [ "$cascade_ok" != "1" ]; then
    die "cascade_choice_matches=$cascade_ok: the cascade changed a tuning decision"
fi

# The async front door must actually multiplex: the in-flight ticket
# high-water mark has to exceed the number of unique cold keys (64
# tickets over 16 keys; submission is microseconds, tunes are
# milliseconds, so a healthy run peaks near the full burst).
async_peak=$(json_num BENCH_serving.json async_in_flight)
async_unique=$(json_num BENCH_serving.json async_unique_cold)
if [ -n "$async_peak" ] && [ -n "$async_unique" ]; then
    if ! awk -v p="$async_peak" -v u="$async_unique" 'BEGIN { exit !(p > u) }'; then
        die "async_in_flight=$async_peak did not exceed async_unique_cold=$async_unique: tickets are not multiplexing"
    else
        say "OK: async front door multiplexed $async_peak tickets over $async_unique cold keys"
    fi
fi

# The eviction-pressure section replays an identical skewed trace under
# both policies, so this is a deterministic quality bar, not a timing:
# the CostAware default must retain at least the hit rate of plain LRU.
ca_rate=$(json_num BENCH_serving.json post_evict_hit_rate)
lru_rate=$(json_num BENCH_serving.json post_evict_hit_rate_lru)
if [ -n "$ca_rate" ] && [ -n "$lru_rate" ]; then
    if ! awk -v c="$ca_rate" -v l="$lru_rate" 'BEGIN { exit !(c >= l) }'; then
        die "CostAware post-eviction hit rate $ca_rate fell below LRU's $lru_rate"
    else
        say "OK: CostAware hit rate $ca_rate >= LRU $lru_rate under pressure"
    fi
fi
evc=$(json_num BENCH_serving.json evictions)
if [ -n "$evc" ] && ! awk -v e="$evc" 'BEGIN { exit !(e > 0) }'; then
    die "evictions=$evc: the pressure workload did not overflow the cache"
fi

# A restarted service must serve everything in its last snapshot
# from cache: zero cold tunes after restore.
restored_cold=$(json_num BENCH_serving.json restored_cold_tunes)
if [ "$restored_cold" != "0" ]; then
    die "restored_cold_tunes=$restored_cold: the restored fleet re-tuned snapshotted keys"
else
    say "OK: restored fleet served its snapshot with zero cold tunes"
fi

# The WAL-recovered fleet is held to the same bar: every decision that
# reached the journal before the crash is a cache hit on the rebuilt
# service -- zero cold tunes.
wal_restored_cold=$(json_num BENCH_serving.json wal_restored_cold_tunes)
if [ "$wal_restored_cold" != "0" ]; then
    die "wal_restored_cold_tunes=$wal_restored_cold: the WAL-recovered fleet re-tuned journaled keys"
else
    say "OK: WAL-recovered fleet served its journal with zero cold tunes"
fi

# The point of the WAL: an interval's durability cost is a handful of
# appended records, strictly below rewriting the whole cache file.
wal_interval=$(json_num BENCH_serving.json wal_bytes_per_interval)
wal_rewrite=$(json_num BENCH_serving.json wal_full_rewrite_bytes)
if [ -n "$wal_interval" ] && [ -n "$wal_rewrite" ]; then
    if ! awk -v w="$wal_interval" -v r="$wal_rewrite" 'BEGIN { exit !(w < r) }'; then
        die "wal_bytes_per_interval=$wal_interval not below full_rewrite_bytes=$wal_rewrite: the journal is not cheaper than a rewrite"
    else
        say "OK: WAL interval cost ${wal_interval}B < whole-file rewrite ${wal_rewrite}B"
    fi
fi
wal_replayed=$(json_num BENCH_serving.json wal_records_replayed)
if [ -n "$wal_replayed" ] && ! awk -v n="$wal_replayed" 'BEGIN { exit !(n > 0) }'; then
    die "wal_records_replayed=$wal_replayed: recovery never exercised the log replay path"
fi

# The deadline path must have fired: a bounded waiter on a stalled tune
# resolves to TimedOut.
timeouts=$(json_num BENCH_serving.json deadline_timed_out)
if [ -n "$timeouts" ] && ! awk -v t="$timeouts" 'BEGIN { exit !(t >= 1) }'; then
    die "deadline_timed_out=$timeouts: the ticket-deadline section never expired"
fi

# ---- self-healing gates (deterministic, not timings) -----------------
# The fault section quarantines a key and heals the seam: the background
# repair must have upgraded it to an authoritative cache entry.
repairs=$(json_num BENCH_serving.json repair_upgrades)
if [ -n "$repairs" ]; then
    if ! awk -v r="$repairs" 'BEGIN { exit !(r >= 1) }'; then
        die "repair_upgrades=$repairs: the quarantined key was never repaired"
    else
        say "OK: background repair upgraded $repairs quarantined key(s)"
    fi
fi
# The main (never-faulted) serving run must stay degraded-free: the
# heuristic fallback is for sick fleets, not steady state.
deg_rate=$(json_num BENCH_serving.json degraded_rate)
if [ -n "$deg_rate" ]; then
    if ! awk -v d="$deg_rate" 'BEGIN { exit !(d == 0) }'; then
        die "degraded_rate=$deg_rate: the healthy serving run answered degraded"
    else
        say "OK: steady-state serving stayed degraded-free"
    fi
fi

# ---- the sparse-family gate (BENCH_sparse.json) ----------------------
# Like the GEMM cascade bit: a correctness floor, not a timing. The
# cascade must agree with the exhaustive sweep on at least one of the
# bench matrices (the goal is all of them; the floor catches a broken
# sparse cascade without flaking on model noise).
sparse_matches=$(json_num BENCH_sparse.json sparse_choice_matches_exhaustive)
if [ -n "$sparse_matches" ]; then
    if ! awk -v m="$sparse_matches" 'BEGIN { exit !(m >= 1) }'; then
        die "sparse_choice_matches_exhaustive=$sparse_matches: the sparse cascade never matched the exhaustive sweep"
    else
        sparse_total=$(json_num BENCH_sparse.json sparse_matrices)
        say "OK: sparse cascade matched exhaustive on $sparse_matches/$sparse_total matrices"
    fi
fi

# ---- the trace-driven load gate (BENCH_load.json) --------------------
# The replay is deterministic per seed (outcome counts are exact), so
# these are hard floors, not noisy timings.
load_shed_rate=$(json_num BENCH_load.json load_shed_rate)
if [ -n "$load_shed_rate" ]; then
    # Shedding must have fired: a trace that never demotes an
    # all-timed-out job to the background lane guards nothing.
    if ! awk -v s="$load_shed_rate" 'BEGIN { exit !(s > 0) }'; then
        die "load_shed_rate=$load_shed_rate: the load trace never exercised deadline shedding"
    else
        say "OK: load trace shed at rate $load_shed_rate"
    fi
fi
load_timeout_rate=$(json_num BENCH_load.json load_timeout_rate)
if [ -n "$load_timeout_rate" ]; then
    # Timeouts are expected (tight deadlines are part of the trace) but
    # bounded: past 50% the service is failing its SLO, not shedding
    # gracefully.
    if ! awk -v t="$load_timeout_rate" 'BEGIN { exit !(t <= 0.5) }'; then
        die "load_timeout_rate=$load_timeout_rate exceeds 0.5: the service is drowning, not shedding"
    else
        say "OK: load timeout rate $load_timeout_rate bounded"
    fi
fi
lp50=$(json_num BENCH_load.json load_p50_s)
lp99=$(json_num BENCH_load.json load_p99_s)
lp999=$(json_num BENCH_load.json load_p999_s)
if [ -n "$lp50" ] && [ -n "$lp99" ] && [ -n "$lp999" ]; then
    if ! awk -v a="$lp50" -v b="$lp99" -v c="$lp999" \
            'BEGIN { exit !(a <= b && b <= c) }'; then
        die "load percentiles out of order: p50=$lp50 p99=$lp99 p999=$lp999"
    else
        say "OK: load percentiles ordered (p50 $lp50 <= p99 $lp99 <= p999 $lp999)"
    fi
fi

# ---- regression guard: cached-hit cost vs. the committed baseline ----
# Baseline preference: origin's default branch (so a PR that commits a
# regressed JSON cannot be its own baseline), falling back to HEAD for
# local runs without a remote.
if [ -z "$BASELINE" ]; then
    BASELINE=$(tmp_baseline)
    ref=$(fetch_baseline BENCH_inference.json "$BASELINE")
    if [ -n "$ref" ]; then
        say "baseline: BENCH_inference.json from $ref"
    else
        say "SKIP: no committed BENCH_inference.json baseline found"
        BASELINE=""
    fi
fi

# guard KEY TOLERANCE LABEL -> compare fresh vs baseline for one key.
guard() {
    key="$1"; tol="$2"; label="$3"
    fresh=$(json_num BENCH_inference.json "$key")
    base=$(json_num "$BASELINE" "$key")
    if [ -z "$base" ]; then
        say "SKIP: baseline has no $key"
        return
    fi
    say "$label: fresh ${fresh}s vs baseline ${base}s (tolerance ${tol}x)"
    if ! awk -v f="$fresh" -v b="$base" -v t="$tol" \
            'BEGIN { exit !(f <= b * t) }'; then
        die "$label cost regressed: ${fresh}s > ${tol} x ${base}s"
    else
        say "OK: $label within tolerance"
    fi
}

if [ -n "$BASELINE" ] && [ "$fail" -eq 0 ]; then
    guard cached_s_per_query "$TOLERANCE" "cached hit"
    guard cold_serial_s_per_query "$COLD_TOLERANCE" "cold tune (serial)"
fi

# ---- regression guard: batched serving throughput (higher is better) --
if [ -z "$SERVING_BASELINE" ]; then
    SERVING_BASELINE=$(tmp_baseline)
    ref=$(fetch_baseline BENCH_serving.json "$SERVING_BASELINE")
    if [ -n "$ref" ]; then
        say "serving baseline: BENCH_serving.json from $ref"
    else
        say "SKIP: no committed BENCH_serving.json baseline found"
        SERVING_BASELINE=""
    fi
fi

# guard_qps FILE BASELINE KEY TOLERANCE LABEL -> throughput guard: fresh
# must stay within 1/tolerance of the baseline (fresh >= base / tol).
guard_qps() {
    file="$1"; baseline="$2"; key="$3"; tol="$4"; label="$5"
    fresh=$(json_num "$file" "$key")
    base=$(json_num "$baseline" "$key")
    if [ -z "$base" ]; then
        say "SKIP: baseline has no $key"
        return
    fi
    say "$label: fresh ${fresh} qps vs baseline ${base} qps (tolerance ${tol}x)"
    if ! awk -v f="$fresh" -v b="$base" -v t="$tol" \
            'BEGIN { exit !(f * t >= b) }'; then
        die "$label throughput regressed: ${fresh} < ${base} / ${tol}"
    else
        say "OK: $label within tolerance"
    fi
}

if [ -n "$SERVING_BASELINE" ] && [ "$fail" -eq 0 ]; then
    guard_qps BENCH_serving.json "$SERVING_BASELINE" batched_qps "$TOLERANCE" "batched serving"
fi

# ---- regression guard: trace-driven load throughput ------------------
if [ -z "$LOAD_BASELINE" ]; then
    LOAD_BASELINE=$(tmp_baseline)
    ref=$(fetch_baseline BENCH_load.json "$LOAD_BASELINE")
    if [ -n "$ref" ]; then
        say "load baseline: BENCH_load.json from $ref"
    else
        say "SKIP: no committed BENCH_load.json baseline found"
        LOAD_BASELINE=""
    fi
fi

if [ -n "$LOAD_BASELINE" ] && [ "$fail" -eq 0 ]; then
    guard_qps BENCH_load.json "$LOAD_BASELINE" load_qps "$TOLERANCE" "trace-driven load"
fi

# ---- regression guard: sparse cached-hit cost (lower is better) ------
if [ -z "$SPARSE_BASELINE" ]; then
    SPARSE_BASELINE=$(tmp_baseline)
    ref=$(fetch_baseline BENCH_sparse.json "$SPARSE_BASELINE")
    if [ -n "$ref" ]; then
        say "sparse baseline: BENCH_sparse.json from $ref"
    else
        say "SKIP: no committed BENCH_sparse.json baseline found"
        SPARSE_BASELINE=""
    fi
fi

# guard_cost FILE BASELINE KEY TOLERANCE LABEL UNIT -> cost guard: fresh
# must stay within tolerance x the baseline (lower is better).
guard_cost() {
    file="$1"; baseline="$2"; key="$3"; tol="$4"; label="$5"; unit="$6"
    fresh=$(json_num "$file" "$key")
    base=$(json_num "$baseline" "$key")
    if [ -z "$base" ]; then
        say "SKIP: baseline has no $key"
        return
    fi
    say "$label: fresh ${fresh}${unit} vs baseline ${base}${unit} (tolerance ${tol}x)"
    if ! awk -v f="$fresh" -v b="$base" -v t="$tol" \
            'BEGIN { exit !(f <= b * t) }'; then
        die "$label cost regressed: ${fresh}${unit} > ${tol} x ${base}${unit}"
    else
        say "OK: $label within tolerance"
    fi
}

if [ -n "$SPARSE_BASELINE" ] && [ "$fail" -eq 0 ]; then
    guard_cost BENCH_sparse.json "$SPARSE_BASELINE" sparse_cached_hit_ns "$TOLERANCE" "sparse cached hit" "ns"
fi

# ---- regression guard: contended-cache hit throughput ----------------
# Only the single-thread figure is gated: hit_scaling depends on how
# many cores the host exposes, so it is archived for trajectory but a
# one-core CI runner must not fail the build over it.
if [ -z "$MICRO_BASELINE" ]; then
    MICRO_BASELINE=$(tmp_baseline)
    ref=$(fetch_baseline BENCH_micro.json "$MICRO_BASELINE")
    if [ -n "$ref" ]; then
        say "micro baseline: BENCH_micro.json from $ref"
    else
        say "SKIP: no committed BENCH_micro.json baseline found"
        MICRO_BASELINE=""
    fi
fi

if [ -n "$MICRO_BASELINE" ] && [ "$fail" -eq 0 ]; then
    guard_qps BENCH_micro.json "$MICRO_BASELINE" hit_qps_1t "$TOLERANCE" "contended cache hit (1t)"
fi

if [ "$fail" -ne 0 ]; then
    say "FAILED"
    exit 1
fi
say "all checks passed"
