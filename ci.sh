#!/usr/bin/env bash
# Offline verification entry point. Everything here runs without network
# access: no registry, no rustup, no downloads.
#
#   ./ci.sh          # full gate: build, test, fmt, clippy, baseline diff
#   ./ci.sh quick    # tier-1 only (build + test)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo build --release"
cargo build --release

step "cargo test -q"
cargo test -q

if [[ "${1:-}" == "quick" ]]; then
    echo "quick gate passed"
    exit 0
fi

step "unsafe policy: one allow(unsafe_code) and one unsafe block under crates/, every other crate root forbids it"
# The x86-64 SHA backend (crates/crypto/src/sha256/ni.rs, DESIGN.md §10) is
# the only code in the workspace that may say `unsafe`, and it says it once.
# A grep, so that a second exemption or a second block fails here instead
# of passing review by accident.
allows=$(grep -rn --include='*.rs' --exclude-dir=target 'allow(unsafe_code)' crates)
echo "$allows"
[[ $(wc -l <<<"$allows") -eq 1 && $allows == crates/crypto/src/sha256.rs:* ]]
blocks=$(grep -rn --include='*.rs' --exclude-dir=target 'unsafe {' crates)
echo "$blocks"
[[ $(wc -l <<<"$blocks") -eq 1 && $blocks == crates/crypto/src/sha256/ni.rs:* ]]
grep -q '^#!\[deny(unsafe_code)\]' crates/crypto/src/lib.rs
for root in crates/*/src/lib.rs crates/*/src/main.rs; do
    [[ $root == crates/crypto/src/lib.rs ]] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || {
        echo "$root does not say #![forbid(unsafe_code)]"
        exit 1
    }
done
# Which SHA-256 path every test and smoke in this log ran on.
cargo test -q -p agora-crypto backend_is_named -- --nocapture | grep '^sha256 backend: '

step "audit digests are computed when issued: the batched precompute and its kernels stay deleted (DESIGN.md §10)"
# `if`, not `!`: errexit ignores a negated command.
if grep -rnE --exclude-dir=target 'sha256_prefixes|PrefixLanes|LaneState|Quad|por_make_audits' crates; then exit 1; fi

step "cargo test --release (crates whose arithmetic or unsafe code the SHA backends touch)"
cargo test -q --release -p agora-crypto -p agora-chain -p agora-storage

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --all-targets --release -- -D warnings -D clippy::perf"
cargo clippy --all-targets --release -- -D warnings -D clippy::perf

step "one build: no cargo feature gates code under crates/, no sub-workspace (DESIGN.md §11)"
# Tracing and the observe plane are always compiled in; what the deleted
# feature matrix guarded (a dormant or installed sink never moves a metric)
# is harness/src/trace.rs::registry_target_replays_matrix_trial_with_identical_metrics.
# `if`, not `!`: errexit ignores a negated command.
if grep -rnE --include='*.rs' --exclude-dir=target 'cfg(_attr)?\(.*feature *=' crates; then exit 1; fi
# The one [features] table left is agora-sim's two inert aliases, there
# because the frozen benchmark/Cargo.toml names them.
[[ $(grep -l '^\[features\]' crates/*/Cargo.toml) == crates/sim/Cargo.toml ]]
[[ $(grep -E '^[a-z]+ = \[' crates/sim/Cargo.toml | tr '\n' ' ') == 'trace = [] probe = [] ' ]]
if [[ -e crates/bench ]] || grep -n '^exclude' Cargo.toml; then exit 1; fi
# Every property suite is an always-on seeded `SimRng` test: no cfg gates a
# test file and nothing reaches for the proptest crate (DESIGN.md §6). The
# bracketed letters keep these patterns from matching this file.
if grep -rnE --exclude-dir=target 'agora_prop[t]est|prop[t]est!|prop[t]est::' crates tests; then exit 1; fi

step "merkle proofs carry siblings only: verify_at derives each side from (index, leaf_count) (DESIGN.md §7)"
if grep -rnE --exclude-dir=target 'sibling_is_righ[t]|ProofSte[p]' crates tests examples; then exit 1; fi

step "retry lives where an experiment retries: the dormant DHT, storage, swarm and amnesia paths stay deleted (DESIGN.md §12)"
if grep -rnE --include='*.rs' --exclude-dir=target 'StorageNode::client_with_retry|peer_with_retry|rpc_retries|amnesia|Jitter|backoff_pre_jitter' crates; then exit 1; fi

step "one timing harness: --perf keeps only rows no BENCHMARK.json metric times, and no reference kernels (DESIGN.md §10)"
if grep -rnE --include='*.rs' --exclude-dir=target 'reference_events_per_sec|packed_events_per_sec|mining_naive|zipf_cdf_samples|zipf_reference|workload_day_throughput|policy_frames_per_sec|exact_day_to_json|perf_to_json_with|perf_to_json_scaled' crates; then exit 1; fi

step "baseline diff: the full matrix must match BENCH_harness.json exactly"
./target/release/agora-harness

step "benchmark correctness gate: every BENCHMARK.json workload once, pins and baseline rows hold"
# The benchmark checks each op against its BENCH_harness.json row or its
# pinned count on every run and prints "correct"; a broken pin should fail
# here, not in the pipeline that runs the benchmark later. Shortest run it
# accepts (--seconds 1), no tracing; its exit status is 2 when incorrect.
bench_spec() {
    python3 -c '
import json, sys
spec = json.load(open("BENCHMARK.json"))
print(*(spec["command"] if sys.argv[1] == "command" else [w["name"] for w in spec["workloads"]]), sep="\n")' "$1"
}
mapfile -t bench_cmd < <(bench_spec command)
mapfile -t bench_workloads < <(bench_spec workloads)
for workload in "${bench_workloads[@]}"; do
    echo "  $workload"
    "${bench_cmd[@]}" --workload "$workload" --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct":true'
done

step "one engine: the one-shard shim lives in one file and only the benchmark's traced engine_core runs it"
# The engine is serial (DESIGN.md §15). crates/sim/src/lib.rs keeps four
# no-op names for the frozen benchmark/; this step goes when they go.
[[ $(grep -rlE --include='*.rs' --exclude-dir=target 'set_shards|shard_stats|with_shards|ShardStats' crates) == crates/sim/src/lib.rs ]]
"${bench_cmd[@]}" --workload engine_core --seconds 1 --trace 1 | tail -n 1 | grep -q '"correct":true'
(./target/release/agora-harness --shards 4 2>&1 || true) | grep -q "unknown argument '--shards'"
# A filter entry that selects nothing is a usage error naming the entry
# (exit 1), not an empty matrix diffed against the baseline (exit 2).
[[ $(./target/release/agora-harness --filter nosuch 2>&1 >/dev/null; echo "exit=$?") == *"'nosuch'"*"exit=1" ]]

CHAOS_TMP="$(mktemp -d)"
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP" "$CHAOS_TMP"' EXIT
H=./target/release/agora-harness
# An output flag under a mode that returns before the matrix run is a usage
# error naming both flags (exit 1), not an exit 0 that wrote nothing.
[[ $($H --speedup --perf "$CHAOS_TMP/x.json" 2>&1 >/dev/null; echo "exit=$?") == *--perf*--speedup*"exit=1" ]]
[[ ! -e "$CHAOS_TMP/x.json" ]]

# det_smoke <name> <filter> <config>...: the first config writes a filtered
# baseline; every later config must reproduce it exactly (the harness's own
# diff is the gate) and its raw artifact must be byte-identical to the
# first's. A config is one word-split flag string. Like trace_smoke below,
# this relies on `set -e`: call it as a plain statement, never inside
# `if`/`&&`/`||`, where bash suspends errexit and a failed cmp or grep
# would no longer abort.
det_smoke() {
    local name=$1 filter=$2 first=$3 i=0 cfg
    shift 3
    # shellcheck disable=SC2086
    $H --filter "$filter" $first --baseline "$CHAOS_TMP/${name}_baseline.json" \
        --update-baseline --json "$CHAOS_TMP/${name}_0.json" >/dev/null
    for cfg in "$@"; do
        i=$((i + 1))
        # shellcheck disable=SC2086
        $H --filter "$filter" $cfg --baseline "$CHAOS_TMP/${name}_baseline.json" \
            --json "$CHAOS_TMP/${name}_$i.json" >/dev/null
        cmp "$CHAOS_TMP/${name}_0.json" "$CHAOS_TMP/${name}_$i.json"
    done
}

# name filter config | config ... (first config = baseline writer). The
# full-matrix baseline diff above already proves every other row is
# unchanged with each subsystem dormant; these prove the artifact does not
# depend on the thread count.
#   e15   chaos: fault schedules and retries
#   e16   workload: the population day on all five classes
#   e17   market: challenges, slashes, repair under chaos
#   e16p  policy: reactive control acts only at drain boundaries off
#         probe-frame state, exact policy.* action counters included
#   e18   app: delta-sync push fan-out, summary pulls, staleness histograms
DET_TABLE=(
    "e15    e15        --threads 1 | --threads 8"
    "e16    e16        --threads 1 | --threads 8"
    "e17    e17        --threads 1 | --threads 8"
    "e16p   e16p/p10k  --threads 1 | --threads 8"
    "e18    e18/p10k   --threads 1 | --threads 8"
)
step "determinism smokes: artifact identical across thread counts"
printf '  %s\n' "${DET_TABLE[@]}"
for row in "${DET_TABLE[@]}"; do
    read -r name filter configs <<<"$row"
    IFS='|' read -r -a configs <<<"$configs"
    det_smoke "$name" "$filter" "${configs[@]}"
done

step "experiments report: --reports regenerates experiments_output.txt byte-for-byte"
$H --reports > "$CHAOS_TMP/reports.txt"
cmp "$CHAOS_TMP/reports.txt" experiments_output.txt

# trace_smoke <target> [span-key...] [explain:<key>]: two runs must write
# byte-identical TRACE jsonl, the schema checker must accept it, every
# listed span family must be present, and (with explain:) the causal chain
# behind the last sample of <key> must print.
trace_smoke() {
    local target=$1 out="$TRACE_TMP/${1//\//_}" explain=() spans=() a
    shift
    for a in "$@"; do
        case $a in
        explain:*) explain=(--explain "${a#explain:}") ;;
        *) spans+=("$a") ;;
        esac
    done
    $H --trace "$target" --trace-out "$out.a.jsonl" "${explain[@]}" > "$out.explain.txt"
    $H --trace "$target" --trace-out "$out.b.jsonl" >/dev/null
    cmp "$out.a.jsonl" "$out.b.jsonl"
    $H --validate-trace "$out.a.jsonl"
    for a in "${spans[@]}"; do
        grep -q "\"type\":\"span\",\"key\":\"$a\"" "$out.a.jsonl"
    done
    if [[ ${#explain[@]} -gt 0 ]]; then
        grep -q "causal chain for '${explain[1]}'" "$out.explain.txt"
    fi
    rm -f "$out.a.jsonl" "$out.b.jsonl"
}

# target, span families that must be present, explain key.
#   e15/e17 run under max chaos: a retried op is explainable back to the
#   driver, a slash back to the audit oracle. e16p runs at 100k, not 10k:
#   the flash crowd has to push a node past saturation before admission
#   control sheds anything. e18: a subscriber's delta lag is explainable
#   back to the push that carried it. e7: the swarm's two counted trace
#   points, whose messages carry shared piece and manifest buffers. e16:
#   the driver's four notes; the schedule is generated a tick at a time as
#   it is replayed, and tick summaries and flash edges are the ones whose
#   place among the demands that generation has to get right.
TRACE_TABLE=(
    "dht explain:dht.lookup_secs"
    "e7 web.pieces_served web.visits_ok"
    "e15/i1.00 chaos.kill retry.attempt explain:retry.attempt"
    "e16/p10k workload.demand workload.churn_kill workload.tick workload.flash"
    "e17/i1.00 market.challenge market.slash market.repair_bytes explain:market.slash"
    "e16p/p100k policy.engage policy.shed policy.replicate policy.seed"
    "e18/p10k app.delta app.merge explain:app.delta_lag"
)
step "trace smokes: deterministic TRACE jsonl + span families + causal explain"
printf '  %s\n' "${TRACE_TABLE[@]}"
for row in "${TRACE_TABLE[@]}"; do
    # shellcheck disable=SC2086
    trace_smoke $row
done
# A shed decision is explainable back to the demand delivery that tripped
# it. Sheds stop once the flash crowd passes and the hysteresis releases,
# so the default ring evicts them by end of day — retain the whole run.
$H --trace e16p/p100k --trace-cap 2097152 \
    --trace-out "$TRACE_TMP/pol_full.jsonl" \
    --explain policy.shed > "$TRACE_TMP/pol_explain.txt"
grep -q "causal chain for 'policy.shed'" "$TRACE_TMP/pol_explain.txt"
rm -f "$TRACE_TMP/pol_full.jsonl"

step "observe smoke: deterministic OBS jsonl, overload anomaly, causal explain"
# Two runs must produce byte-identical artifacts; the schema checker must
# accept them; E16 at 10k users must carry an overload anomaly; and the
# anomaly must be explainable (points-only ring keeps onset-time firings).
$H --observe e16/p10k --observe-out "$TRACE_TMP/obs_a.jsonl" \
    --explain anomaly.overload > "$TRACE_TMP/obs_explain.txt"
grep -q "causal chain for 'anomaly.overload'" "$TRACE_TMP/obs_explain.txt"
$H --observe e16/p10k --observe-out "$TRACE_TMP/obs_b.jsonl" >/dev/null
cmp "$TRACE_TMP/obs_a.jsonl" "$TRACE_TMP/obs_b.jsonl"
$H --validate-obs "$TRACE_TMP/obs_a.jsonl"
grep -q '"kind":"anomaly.overload"' "$TRACE_TMP/obs_a.jsonl"

# hostile_smoke <file>: every CLI reader handed <file> must refuse it with
# the harness's own status (2 from the two validators, 1 for a baseline it
# cannot read) and a position in the message. A status of 128 or more is a
# signal: 134 is what a stack overflow in the JSON reader looked like.
hostile_smoke() {
    local file=$1 row want reader status
    for row in "2 --validate-trace" "2 --validate-obs" "1 --filter e1 --baseline"; do
        read -r want reader <<<"$row"
        status=0
        # shellcheck disable=SC2086
        $H $reader "$file" >/dev/null 2>"$TRACE_TMP/hostile.err" || status=$?
        echo "  $reader ${file##*/}: exit $status: $(head -c 160 "$TRACE_TMP/hostile.err")"
        [[ $status -eq $want ]]
        grep -Eq 'line [0-9]+, column [0-9]+: ' "$TRACE_TMP/hostile.err"
    done
}

step "hostile artifacts: the JSON readers answer with an error and a position, never a signal"
head -c 300000 /dev/zero | tr '\0' '[' > "$TRACE_TMP/deep_nesting.json"
printf '{"schema": 1, "note": "cut mid-str' > "$TRACE_TMP/cut_mid_string.json"
hostile_smoke "$TRACE_TMP/deep_nesting.json"
hostile_smoke "$TRACE_TMP/cut_mid_string.json"

echo
echo "full gate passed"
