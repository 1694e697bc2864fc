#!/usr/bin/env bash
# Self-contained check of the benchmark (ci.sh does not run it): offline
# build, unit tests, one untraced and one traced run of every workload with
# BENCHMARK.json's own command, and a schema check of what they print.
# About 3 minutes. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"

out=benchmark/out/check
rm -rf "$out"
mkdir -p "$out"
spec() {
    python3 -c '
import json, sys
value = json.load(open("BENCHMARK.json"))[sys.argv[1]]
print(*value, sep="\n") if isinstance(value, list) else print(value)' "$1"
}
mapfile -t command < <(spec command)
seconds=$(spec run_seconds)
for workload in flash_day classic_suite engine_core exact_users; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        "${command[@]}" --workload "$workload" --seed 20171130 --seconds "$seconds" \
            --trace "$trace" | tail -n 1 > "$out/${workload}_$trace.json"
    done
done

python3 - "$out" <<'EOF'
import json, re, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
measured = set()
for workload in (w["name"] for w in spec["workloads"]):
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        path = f"{out}/{workload}_{trace}.json"
        result = json.load(open(path))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, path
        assert result["correct"] is True and result["failed"] == 0, path
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1, path
        want = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (path, set(got) ^ set(want))
        for name, m in result["metrics"].items():
            assert name_ok.match(name) and name_ok.match(workload), name
            assert set(m) == {"value", "unit"}, (path, name)
            assert isinstance(m["value"], (int, float)), (path, name)
            if trace == 0:
                assert m["value"] > 0, (path, name)
            elif m["value"] != 0:
                measured.add(name)
never = {m["name"] for m in spec["per_layer"]} - measured
assert not never, f"per-layer metrics no workload measures: {sorted(never)}"
print("benchmark output matches BENCHMARK.json")
EOF
