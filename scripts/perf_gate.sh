#!/usr/bin/env sh
# Timing-free perf gate.
#
# Runs the perf harness's quick matrices twice (--jobs 1 and --jobs 2)
# and requires the *deterministic* blocks of the two BENCH_perf.json
# documents — workload shape and simulated-event counts — to be
# identical. That covers both matrices:
#
#   * index points: event counts are a pure function of workload and
#     seed, so any drift means the kernel's behaviour changed (e.g. the
#     spatial index diverging from the exhaustive scan, which the
#     harness itself also asserts per point);
#   * scaling points (--shards 1/2/4): each shard count is its own
#     deterministic model, so its event count must be byte-stable
#     across worker counts and machines. Counts are NOT comparable
#     across shard counts — the gate checks per-shard-count stability.
#   * cloud points: every gated quantity (message counts, shed,
#     virtual-time p50/p99, fairness) is a pure function of the
#     session plan and seed, so the whole deterministic block must be
#     identical across worker counts.
#   * stream points: the logged-ingest plane — WAL record/byte counts,
#     admission sheds, closed windows — is a pure function of the same
#     inputs, and stream_matrix itself asserts replay equality per
#     point, so a passing gate also certifies crash-replay determinism.
#   * icn points: the named-data star's Interest/Data/cache/verify
#     counts are a pure function of the workload and seed, and
#     icn_matrix asserts consumer convergence per point, so a passing
#     gate also certifies the pub/sub plane's determinism.
#
# Deliberately NOT gated: wall-clock numbers and speedups. CI machines
# are noisy and shared; timing thresholds make flaky gates. Timings are
# recorded in the JSON for trajectory tracking only.
set -eu

cd "$(dirname "$0")/.."
out="${TMPDIR:-/tmp}/iiot-perf-gate.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

cargo build -p iiot-bench --release --offline --bin perf
bin=target/release/perf

"$bin" --quick --jobs 1 --json "$out/perf-j1.json" > /dev/null 2> /dev/null
"$bin" --quick --jobs 2 --json "$out/perf-j2.json" > /dev/null 2> /dev/null

python3 - "$out/perf-j1.json" "$out/perf-j2.json" <<'EOF'
import json, sys

def deterministic(path):
    doc = json.load(open(path))
    assert doc["schema"] == "iiot-bench/perf/v6", doc.get("schema")
    points, scaling, cloud = doc["points"], doc["scaling"], doc["cloud"]
    stream, icn = doc["stream"], doc["icn"]
    assert points, "no index points measured"
    assert scaling, "no scaling points measured"
    assert cloud, "no cloud points measured"
    assert stream, "no stream points measured"
    assert icn, "no icn points measured"
    for p in points:
        d, t = p["deterministic"], p["timing"]
        assert set(d) == {"side", "mac", "nodes", "secs", "seed", "events"}, d.keys()
        assert set(t) == {
            "wall_indexed_us", "wall_exhaustive_us", "speedup", "events_per_sec",
        }, t.keys()
        assert d["nodes"] == d["side"] ** 2, d
        assert d["events"] > 0, d
    for p in scaling:
        d, t = p["deterministic"], p["timing"]
        assert set(d) == {"side", "nodes", "shards", "secs", "seed", "events"}, d.keys()
        assert set(t) == {"wall_us", "events_per_sec", "mode"}, t.keys()
        assert t["mode"] in {"threaded", "serial"}, t
        assert d["nodes"] == d["side"] ** 2, d
        assert d["events"] > 0, d
    shard_counts = {p["deterministic"]["shards"] for p in scaling}
    assert {1, 2, 4} <= shard_counts, f"scaling must cover shards 1/2/4: {shard_counts}"
    for p in cloud:
        d, t = p["deterministic"], p["timing"]
        assert set(d) == {
            "sessions", "tenants", "shards", "msgs", "accepted", "shed",
            "p50_us", "p99_us", "fairness_milli",
        }, d.keys()
        assert set(t) == {"wall_us", "msgs_per_sec", "mode"}, t.keys()
        assert t["mode"] in {"threaded", "serial"}, t
        assert d["msgs"] == d["accepted"] + d["shed"], d
        assert d["msgs"] > 0 and d["sessions"] > 0, d
        assert 0 < d["fairness_milli"] <= 1000, d
    for p in stream:
        d, t = p["deterministic"], p["timing"]
        assert set(d) == {
            "sessions", "tenants", "msgs", "accepted", "shed", "log_records",
            "log_bytes", "segments", "windows", "window_obs",
        }, d.keys()
        assert set(t) == {"wall_us", "replay_wall_us", "msgs_per_sec"}, t.keys()
        assert d["msgs"] == d["accepted"] + d["shed"], d
        assert d["log_records"] == d["msgs"], "WAL must hold every offered uplink"
        assert d["msgs"] > 0 and d["sessions"] > 0, d
        assert d["log_bytes"] > 0 and d["segments"] > 0 and d["windows"] > 0, d
    for p in icn:
        d, t = p["deterministic"], p["timing"]
        assert set(d) == {
            "consumers", "nodes", "interests", "data", "cache_hits",
            "verifies", "verify_fails", "delivered",
        }, d.keys()
        assert set(t) == {"wall_us"}, t.keys()
        assert d["nodes"] == d["consumers"] + 2, d
        assert d["verify_fails"] == 0, "honest workload must verify clean"
        assert d["delivered"] > 0 and d["interests"] > 0 and d["data"] > 0, d
    return (
        [p["deterministic"] for p in points],
        [p["deterministic"] for p in scaling],
        [p["deterministic"] for p in cloud],
        [p["deterministic"] for p in stream],
        [p["deterministic"] for p in icn],
    )

p1, s1, c1, w1, i1 = deterministic(sys.argv[1])
p2, s2, c2, w2, i2 = deterministic(sys.argv[2])
assert p1 == p2, "index event counts drifted between --jobs 1 and --jobs 2"
assert s1 == s2, "per-shard-count event counts drifted between --jobs 1 and --jobs 2"
assert c1 == c2, "cloud deterministic blocks drifted between --jobs 1 and --jobs 2"
assert w1 == w2, "stream deterministic blocks drifted between --jobs 1 and --jobs 2"
assert i1 == i2, "icn deterministic blocks drifted between --jobs 1 and --jobs 2"
print(
    f"perf gate: {len(p1)} index points + {len(s1)} scaling points "
    f"(shards 1/2/4) + {len(c1)} cloud points + {len(w1)} stream points "
    f"(replay asserted in-harness) + {len(i1)} icn points (convergence "
    "asserted in-harness), deterministic blocks identical at --jobs 1/2"
)
EOF

echo "perf gate OK: deterministic blocks byte-stable across worker counts"
