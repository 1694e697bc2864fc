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

step "unsafe policy: two allow(unsafe_code) and two unsafe blocks under crates/, each in its file; every other crate root forbids it"
# The x86-64 SHA backend (crates/crypto/src/sha256/ni.rs) and the SSSE3
# GF(2^8) kernel (gf::x86 in crates/storage/src/erasure.rs), DESIGN.md §10,
# are the only code in the workspace that may say `unsafe`, and each says
# it once. A grep, so that a third exemption or a third block fails here
# instead of passing review by accident.
pinned() { # <what> <grep output> <file of the first line> <file of the second>
    echo "$2"
    local files
    files=$(cut -d: -f1 <<<"$2" | sort | tr '\n' ' ')
    [[ $files == "$(printf '%s\n' "$3" "$4" | sort | tr '\n' ' ')" ]] || {
        echo "$1: expected one line in each of $3 and $4"
        exit 1
    }
}
pinned 'allow(unsafe_code)' \
    "$(grep -rn --include='*.rs' --exclude-dir=target 'allow(unsafe_code)' crates)" \
    crates/crypto/src/sha256.rs crates/storage/src/erasure.rs
pinned 'unsafe {' \
    "$(grep -rn --include='*.rs' --exclude-dir=target 'unsafe {' crates)" \
    crates/crypto/src/sha256/ni.rs crates/storage/src/erasure.rs
grep -q '^#!\[deny(unsafe_code)\]' crates/crypto/src/lib.rs
grep -q '^#!\[deny(unsafe_code)\]' crates/storage/src/lib.rs
for root in crates/*/src/lib.rs crates/*/src/main.rs; do
    [[ $root == crates/crypto/src/lib.rs || $root == crates/storage/src/lib.rs ]] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || {
        echo "$root does not say #![forbid(unsafe_code)]"
        exit 1
    }
done
# Which SHA-256 and GF(2^8) paths every test and smoke in this log ran on.
cargo test -q -p agora-crypto backend_is_named -- --nocapture | grep '^sha256 backend: '
cargo test -q -p agora-storage backend_is_named -- --nocapture | grep '^erasure backend: '

step "panic-site ratchet: lines under crates/*/src naming unwrap(), expect(, panic! or unreachable! stay at or below the pin"
# Tracked files, unit tests in src included. A change that removes sites
# lowers PANIC_SITES to the new count; no change raises it.
PANIC_SITES=499
panic_sites=$(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | xargs cat -- |
    grep -cE 'unwrap\(\)|expect\(|panic!|unreachable!' || true)
echo "  $panic_sites lines, pinned at most $PANIC_SITES"
[[ $panic_sites -le $PANIC_SITES ]] || {
    echo "panic sites rose from $PANIC_SITES to $panic_sites"
    exit 1
}

step "cargo test --release (crates whose arithmetic or unsafe code the SHA and GF(2^8) backends touch)"
cargo test -q --release -p agora-crypto -p agora-chain -p agora-storage

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --all-targets --release -- -D warnings -D clippy::perf"
cargo clippy --all-targets --release -- -D warnings -D clippy::perf

step "one build: no cargo feature table beyond agora-sim's inert aliases, no sub-workspace (DESIGN.md §11)"
# Tracing and the observe plane are always compiled in; what the deleted
# feature matrix guarded (a dormant or installed sink never moves a metric)
# is harness/src/trace.rs::registry_target_replays_matrix_trial_with_identical_metrics.
# The one [features] table left is agora-sim's two inert aliases, there
# because the frozen benchmark/Cargo.toml names them.
[[ $(grep -l '^\[features\]' crates/*/Cargo.toml) == crates/sim/Cargo.toml ]]
[[ $(grep -E '^[a-z]+ = \[' crates/sim/Cargo.toml | tr '\n' ' ') == 'trace = [] probe = [] ' ]]
if [[ -e crates/bench ]] || grep -n '^exclude' Cargo.toml; then exit 1; fi

# Retired names stay retired. One row per deletion: the DESIGN.md section
# that says why, the paths searched (comma-separated, globs expand), the
# one file allowed to match (- for none), and an extended regex that must
# match nowhere else. Bracketed letters keep a pattern from matching this
# file.
STAYS_DELETED=(
    # Audit digests are computed when issued: the batched precompute and
    # its kernels.
    "§10 crates - sha256_prefixes|PrefixLanes|LaneState|Quad|por_make_audits"
    # No cargo feature gates code.
    "§11 crates - cfg(_attr)?\(.*feature *="
    # Every property suite is an always-on seeded SimRng test: no cfg gate,
    # no proptest crate.
    "§6 crates,tests - agora_prop[t]est|prop[t]est!|prop[t]est::"
    # Merkle proofs carry siblings only: verify_at derives each side.
    "§7 crates,tests,examples - sibling_is_righ[t]|ProofSte[p]"
    # Retry lives where an experiment retries.
    "§12 crates - StorageNode::client_with_retry|peer_with_retry|rpc_retries|amnesia|Jitter|backoff_pre_jitter"
    # One timing harness: --perf keeps only rows no BENCHMARK.json metric
    # times, and no reference kernels.
    "§10 crates - reference_events_per_sec|packed_events_per_sec|mining_naive|zipf_cdf_samples|zipf_reference|workload_day_throughput|policy_frames_per_sec|exact_day_to_json|perf_to_json_with|perf_to_json_scaled"
    # One hasher: every protocol table is a seedless FastMap/FastSet, so
    # iteration order is the same in every process (comments included).
    "§10 crates/*/src crates/sim/src/hash.rs \b(HashMap|HashSet|RandomState)\b"
    # One Knuth loop: exp(-mean) only in agora-sim's Poisson, once per
    # sampler.
    "§10 crates/*/src crates/sim/src/rng.rs \(-mean\)\.exp\(\)"
    # One Box–Muller cosine: libm's `cos` only in rng.rs, behind the table
    # kernel's rounding filter; a log-normal draw is a SimDuration.
    "§10 crates/*/src crates/sim/src/rng.rs \.cos\(\)"
    "§10 crates,tests,examples - \.log_normal\("
    # One division per message size: each link remembers its last
    # serialization delay, so no send divides its size inline.
    "§10 crates/*/src - 8\.0 / self\.nodes\["
    # A contract states only what differs: state, delta and summary are
    # OpLog and VersionVector, written once.
    "§18 crates - type (State|Delta|Summary)\b|merge_deltas|state_as_delta|delta_from_summary|(en|de)code_(state|delta|summary)|state_ops|delta_ops|writer_seq"
    # Two overload detectors over the workload signals, no tuning fields:
    # engine state is rendered, not judged.
    "§16 crates,tests,examples - ObserverConfig|zscore|anomaly\.trend|trend_len|overload_backlog_secs|ewma_var"
    # The observe plane in two homes: probe names the signals and the
    # threshold, the harness detects and writes OBS lines. No typed record
    # layer between them, and no code names the shell crate.
    "§16 crates,tests,examples - ObsRecor[d]|FrameRecor[d]|AnomalyRecor[d]|SignalSummar[y]|ObserverSummar[y]|agora_observe[r]::|fn (frame|anomaly|record_to)_json"
    # One replay: --trace and --observe run a trial through one function,
    # probe frames count the queue when they are taken, and the
    # serial-vs-parallel timer is gone.
    "§16 crates,tests,examples - run_trace_targe[t]|run_observe_targe[t]|\bTraceRu[n]\b|\bObserveRu[n]\b|fn note_(push|dispatch)|\"--speedu[p]\""
    # A policy senses utilization itself, at constant thresholds.
    "§17 crates,tests,examples - PolicyConfig|engage_util|release_util|release_frames|max_level"
    # One run path and one render path per experiment: no result wrapper,
    # no sweep a report runs for itself, no second report entry point.
    "§9 crates,tests,examples - \bE[0-9]+p?Resul[t]\b|E16PolicyResul[t]|\be[0-9]+_[a-z_]*(swee[p]|poin[t])\(|print_report[s]"
    # Trial metrics are never merged: no exact-merge API to keep correct.
    "§9 crates/sim/src/metrics.rs - fn merg[e]\b"
    # One builder per fleet shape: a federation, chain mesh or Kademlia
    # overlay is stood up by its protocol crate, never by a hand loop.
    "§4 crates/core,crates/harness,examples - FedNode::instanc[e]\(|ChainNode::ne[w]\(|DhtNode::ne[w]\("
    # A day keeps no per-request sample nobody reads, and its op histogram
    # reaches P² by reference, not through a copy.
    "§10 crates,tests,examples - sample\(\"(workload\.session_sec[s]|dht\.lookup_hop[s]|storage\.put_sec[s]|chain\.reorg_dept[h])\"|samples\(\)\.to_ve[c]\(\)"
)
step "retired names stay deleted: one grep per row"
for row in "${STAYS_DELETED[@]}"; do
    read -r section paths allowed pattern <<<"$row"
    echo "  DESIGN.md $section, $paths: $pattern"
    IFS=, read -r -a dirs <<<"$paths"
    # Unquoted on purpose: the paths are globs. `if`, not `!`: errexit
    # ignores a negated command.
    # shellcheck disable=SC2068
    if grep -rnE --exclude-dir=target "$pattern" ${dirs[@]} | grep -v "^$allowed:"; then exit 1; fi
done

step "the benchmark's lock is current: a crate-graph edit fails here instead of rewriting benchmark/Cargo.lock"
# The benchmark command runs without --locked, so a manifest edge added or
# dropped under crates/ would silently rewrite the frozen lock.
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

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
# A flag the chosen mode never reads — an output under a mode that returns
# before the matrix run, or a second replay — is a usage error naming both
# flags (exit 1), not an exit 0 that wrote nothing.
[[ $($H --trace dht --perf "$CHAOS_TMP/x.json" 2>&1 >/dev/null; echo "exit=$?") == *--perf*--trace*"exit=1" ]]
[[ ! -e "$CHAOS_TMP/x.json" ]]
[[ $($H --observe e1 --trace e3 --trace-out "$CHAOS_TMP/t.jsonl" 2>&1 >/dev/null; echo "exit=$?") == *--trace*--observe*"exit=1" ]]
[[ ! -e "$CHAOS_TMP/t.jsonl" ]]
# The serial-vs-parallel timer is gone: the --perf trajectory row, the
# determinism smokes below and bm:harness.pool_speedup_2t answer it.
[[ $($H --speedup 2>&1 >/dev/null; echo "exit=$?") == *"unknown argument '--speedup'"*"exit=1" ]]
# --reports renders every variant of the default layout: a filtered or
# reseeded layout is a usage error too.
[[ $($H --reports --filter e1 2>&1 >/dev/null; echo "exit=$?") == *--filter*--reports*"exit=1" ]]

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

step "baseline diff and experiments report: one full-matrix run"
# The exit status gates BENCH_harness.json (every aggregate within
# tolerance); stdout is the reports rendered from that run's aggregates and
# must be experiments_output.txt byte for byte. --json composes with
# --reports, and the artifact it writes is the checked-in baseline's bytes.
$H --reports --json "$CHAOS_TMP/full.json" > "$CHAOS_TMP/reports.txt"
cmp "$CHAOS_TMP/reports.txt" experiments_output.txt
cmp "$CHAOS_TMP/full.json" BENCH_harness.json

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
