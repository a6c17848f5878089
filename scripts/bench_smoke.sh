#!/usr/bin/env sh
# Tier-2 smoke checks:
#   1. the parallel trial runner must produce byte-identical E5, E14,
#      E15, E16, E17 and E18 tables (and JSON dumps) at --jobs 1 and
#      --jobs 2 — E18's replay trial additionally proves, over the raw
#      trace, that a pipeline rebuilt from the event log emits exactly
#      the live pipeline's event stream;
#   2. the --trace JSONL event dump must be byte-identical too, and
#      must round-trip through trace_report deterministically;
#   3. a sharded (--shards 2) perf run must produce byte-identical
#      deterministic blocks regardless of worker count — the same
#      contract the tables meet, extended to the parallel kernel;
#   4. the public API docs must build without rustdoc warnings and
#      every doc example must pass;
#   5. clippy must be clean (warnings denied) across every iiot crate
#      and target;
#   6. rustfmt must agree with the committed formatting across every
#      iiot crate (vendored stand-ins are exempt).
# Catches scheduling-dependent output and doc rot before they reach
# EXPERIMENTS.md / the published API.
set -eu

cd "$(dirname "$0")/.."
out="${TMPDIR:-/tmp}/iiot-bench-smoke.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

cargo build -p iiot-bench --release --offline --bins
bin=target/release/experiments

"$bin" e5 --jobs 1 --json "$out/e5-j1.json" --trace "$out/e5-j1.jsonl" \
    > "$out/e5-j1.txt" 2> /dev/null
"$bin" e5 --jobs 2 --json "$out/e5-j2.json" --trace "$out/e5-j2.jsonl" \
    > "$out/e5-j2.txt" 2> /dev/null

diff -u "$out/e5-j1.txt" "$out/e5-j2.txt"
diff -u "$out/e5-j1.json" "$out/e5-j2.json"

# The structured event dump is scheduling-independent as well, and the
# summary of identical dumps is identical.
cmp "$out/e5-j1.jsonl" "$out/e5-j2.jsonl"
target/release/trace_report "$out/e5-j1.jsonl" > "$out/report-j1.txt"
target/release/trace_report "$out/e5-j2.jsonl" > "$out/report-j2.txt"
diff -u "$out/report-j1.txt" "$out/report-j2.txt"
grep -q "== drop causes ==" "$out/report-j1.txt"

# The dump must be machine-readable JSON of the expected shape.
python3 - "$out/e5-j1.json" <<'EOF'
import json, sys
tables = json.load(open(sys.argv[1]))
assert isinstance(tables, list) and tables, "no tables in dump"
for t in tables:
    assert set(t) == {"title", "headers", "rows"}, t.keys()
    for row in t["rows"]:
        assert len(row) == len(t["headers"]), (t["title"], row)
EOF

# E14 interleaves world stepping with oracle sampling (mid-campaign
# flash inspection, rollout polling) inside its trials — the dirtiest
# determinism surface the harness has. Same contract: byte-identical
# tables, dumps and traces at any worker count. `--quick` shrinks the
# matrices (full-scale E14 traces run to gigabytes) while driving the
# identical code paths.
"$bin" e14 --quick --jobs 1 --json "$out/e14-j1.json" --trace "$out/e14-j1.jsonl" \
    > "$out/e14-j1.txt" 2> /dev/null
"$bin" e14 --quick --jobs 2 --json "$out/e14-j2.json" --trace "$out/e14-j2.jsonl" \
    > "$out/e14-j2.txt" 2> /dev/null

diff -u "$out/e14-j1.txt" "$out/e14-j2.txt"
diff -u "$out/e14-j1.json" "$out/e14-j2.json"
cmp "$out/e14-j1.jsonl" "$out/e14-j2.jsonl"
target/release/trace_report "$out/e14-j1.jsonl" > "$out/report-e14-j1.txt"
target/release/trace_report "$out/e14-j2.jsonl" > "$out/report-e14-j2.txt"
diff -u "$out/report-e14-j1.txt" "$out/report-e14-j2.txt"
grep -q "== dissemination campaign ==" "$out/report-e14-j1.txt"

# E15 drives duty-cycled LPL radios from per-node poll timers with
# per-round jitter drawn from each node's RNG, then reads energy,
# cache and verification counters back through trial-level asserts —
# RNG-order and float-summation hazards the other smokes don't have.
# Same contract: byte-identical tables, dumps and traces at any worker
# count, and the trace must carry the named-data events.
"$bin" e15 --quick --jobs 1 --json "$out/e15-j1.json" --trace "$out/e15-j1.jsonl" \
    > "$out/e15-j1.txt" 2> /dev/null
"$bin" e15 --quick --jobs 2 --json "$out/e15-j2.json" --trace "$out/e15-j2.jsonl" \
    > "$out/e15-j2.txt" 2> /dev/null

diff -u "$out/e15-j1.txt" "$out/e15-j2.txt"
diff -u "$out/e15-j1.json" "$out/e15-j2.json"
cmp "$out/e15-j1.jsonl" "$out/e15-j2.jsonl"
target/release/trace_report "$out/e15-j1.jsonl" > "$out/report-e15-j1.txt"
target/release/trace_report "$out/e15-j2.jsonl" > "$out/report-e15-j2.txt"
diff -u "$out/report-e15-j1.txt" "$out/report-e15-j2.txt"
grep -q "== icn ==" "$out/report-e15-j1.txt"

# E16 runs the cloud pipeline's sharded drain on each trial's own
# thread, *inside* runner worker threads. Same contract:
# byte-identical tables, dumps and traces at any worker count, and the
# trace must carry the cloud-tier events.
"$bin" e16 --quick --jobs 1 --json "$out/e16-j1.json" --trace "$out/e16-j1.jsonl" \
    > "$out/e16-j1.txt" 2> /dev/null
"$bin" e16 --quick --jobs 2 --json "$out/e16-j2.json" --trace "$out/e16-j2.jsonl" \
    > "$out/e16-j2.txt" 2> /dev/null

diff -u "$out/e16-j1.txt" "$out/e16-j2.txt"
diff -u "$out/e16-j1.json" "$out/e16-j2.json"
cmp "$out/e16-j1.jsonl" "$out/e16-j2.jsonl"
target/release/trace_report "$out/e16-j1.jsonl" > "$out/report-e16-j1.txt"
target/release/trace_report "$out/e16-j2.jsonl" > "$out/report-e16-j2.txt"
diff -u "$out/report-e16-j1.txt" "$out/report-e16-j2.txt"
grep -q "== cloud tier ==" "$out/report-e16-j1.txt"

# E17 runs many lockstep simulation worlds per trial (one per network
# in the fleet) with fleet-level campaign/drift events recorded outside
# any single world — the broadest world-ordering surface the trace sink
# has. Same contract: byte-identical tables, dumps and traces at any
# worker count, and the trace must carry the fleet-plane events.
"$bin" e17 --quick --jobs 1 --json "$out/e17-j1.json" --trace "$out/e17-j1.jsonl" \
    > "$out/e17-j1.txt" 2> /dev/null
"$bin" e17 --quick --jobs 2 --json "$out/e17-j2.json" --trace "$out/e17-j2.jsonl" \
    > "$out/e17-j2.txt" 2> /dev/null

diff -u "$out/e17-j1.txt" "$out/e17-j2.txt"
diff -u "$out/e17-j1.json" "$out/e17-j2.json"
cmp "$out/e17-j1.jsonl" "$out/e17-j2.jsonl"
target/release/trace_report "$out/e17-j1.jsonl" > "$out/report-e17-j1.txt"
target/release/trace_report "$out/e17-j2.jsonl" > "$out/report-e17-j2.txt"
diff -u "$out/report-e17-j1.txt" "$out/report-e17-j2.txt"
grep -q "== fleet ==" "$out/report-e17-j1.txt"

# E18 appends every offered uplink to an in-memory event log, replays
# the log through a fresh pipeline, and recovers from adversarially
# truncated images — all inside trials that must stay byte-identical at
# any worker count. The trace must carry the stream-tier events, and
# the replay trial's world 1 (the replayed pipeline) must emit exactly
# the event stream of world 0 (the live pipeline).
"$bin" e18 --quick --jobs 1 --json "$out/e18-j1.json" --trace "$out/e18-j1.jsonl" \
    > "$out/e18-j1.txt" 2> /dev/null
"$bin" e18 --quick --jobs 2 --json "$out/e18-j2.json" --trace "$out/e18-j2.jsonl" \
    > "$out/e18-j2.txt" 2> /dev/null

diff -u "$out/e18-j1.txt" "$out/e18-j2.txt"
diff -u "$out/e18-j1.json" "$out/e18-j2.json"
cmp "$out/e18-j1.jsonl" "$out/e18-j2.jsonl"
target/release/trace_report "$out/e18-j1.jsonl" > "$out/report-e18-j1.txt"
target/release/trace_report "$out/e18-j2.jsonl" > "$out/report-e18-j2.txt"
diff -u "$out/report-e18-j1.txt" "$out/report-e18-j2.txt"
grep -q "== stream ==" "$out/report-e18-j1.txt"

# Replay-equals-live, checked over the raw trace: within the
# "e18/replay" trial, the live pipeline records under world 0 and the
# replayed pipeline under world 1, and their event streams must match
# line for line.
python3 - "$out/e18-j1.jsonl" <<'EOF'
import json, sys
worlds = {}
with open(sys.argv[1]) as fh:
    lines = iter(fh)
    for line in lines:
        hdr = json.loads(line)
        block = [next(lines) for _ in range(hdr["events"])]
        if hdr["label"] == "e18/replay":
            worlds.setdefault(hdr["world"], []).extend(block)
assert set(worlds) == {0, 1}, f"replay trial worlds: {sorted(worlds)}"
assert worlds[0], "live pipeline recorded no events"
assert worlds[0] == worlds[1], "replayed event stream diverged from live"
print(f"replay-equals-live: {len(worlds[0])} events byte-identical")
EOF

# The sharded kernel's determinism contract, trace-diff style: a tiny
# --shards 2 perf run at --jobs 1 and --jobs 2 must agree byte-for-byte
# on every deterministic block (workload shape + simulated event
# counts). shards=2 is its own deterministic model — counts need not
# match shards=1 — but it must be invariant to how many OS threads
# execute it.
target/release/perf --quick --sides 4 --scale-sides 6 --secs 1 --shards 2 \
    --jobs 1 --json "$out/perf-s2-j1.json" > /dev/null 2> /dev/null
target/release/perf --quick --sides 4 --scale-sides 6 --secs 1 --shards 2 \
    --jobs 2 --json "$out/perf-s2-j2.json" > /dev/null 2> /dev/null
python3 - "$out/perf-s2-j1.json" > "$out/perf-s2-j1.det" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["points"] + doc["scaling"]:
    print(json.dumps(p["deterministic"], sort_keys=True))
EOF
python3 - "$out/perf-s2-j2.json" > "$out/perf-s2-j2.det" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["points"] + doc["scaling"]:
    print(json.dumps(p["deterministic"], sort_keys=True))
EOF
diff -u "$out/perf-s2-j1.det" "$out/perf-s2-j2.det"
grep -q '"shards": 2' "$out/perf-s2-j1.det"

# The committed perf artifact (regenerated by `cargo run -p iiot-bench
# --release --bin perf -- --json`) must parse under the perf schema:
# deterministic workload/event-count blocks plus informational timing,
# for the index matrix, the shard-scaling curves, the cloud ingest
# load points, the logged-stream points and the named-data points.
python3 - BENCH_perf.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "iiot-bench/perf/v6", doc.get("schema")
assert isinstance(doc["spacing_m"], (int, float))
assert doc["points"], "no points in committed BENCH_perf.json"
assert doc["scaling"], "no scaling curves in committed BENCH_perf.json"
assert doc["cloud"], "no cloud points in committed BENCH_perf.json"
assert doc["stream"], "no stream points in committed BENCH_perf.json"
assert doc["icn"], "no icn points in committed BENCH_perf.json"
for p in doc["points"]:
    d, t = p["deterministic"], p["timing"]
    assert set(d) == {"side", "mac", "nodes", "secs", "seed", "events"}, d.keys()
    assert set(t) == {
        "wall_indexed_us", "wall_exhaustive_us", "speedup", "events_per_sec",
    }, t.keys()
    assert d["nodes"] == d["side"] ** 2 and d["events"] > 0, d
for p in doc["scaling"]:
    d, t = p["deterministic"], p["timing"]
    assert set(d) == {"side", "nodes", "shards", "secs", "seed", "events"}, d.keys()
    assert set(t) == {"wall_us", "events_per_sec", "mode"}, t.keys()
    assert t["mode"] in {"threaded", "serial"}, t
    assert d["nodes"] == d["side"] ** 2 and d["events"] > 0, d
    assert d["shards"] >= 1, d
shard_counts = {p["deterministic"]["shards"] for p in doc["scaling"]}
assert {1, 2, 4} <= shard_counts, f"scaling must cover shards 1/2/4: {shard_counts}"
for p in doc["cloud"]:
    d, t = p["deterministic"], p["timing"]
    assert set(d) == {
        "sessions", "tenants", "shards", "msgs", "accepted", "shed",
        "p50_us", "p99_us", "fairness_milli",
    }, d.keys()
    assert set(t) == {"wall_us", "msgs_per_sec", "mode"}, t.keys()
    assert d["msgs"] == d["accepted"] + d["shed"] and d["msgs"] > 0, d
assert max(p["deterministic"]["sessions"] for p in doc["cloud"]) >= 100_000, \
    "committed cloud curve must reach 1e5 sessions"
for p in doc["stream"]:
    d, t = p["deterministic"], p["timing"]
    assert set(d) == {
        "sessions", "tenants", "msgs", "accepted", "shed", "log_records",
        "log_bytes", "segments", "windows", "window_obs",
    }, d.keys()
    assert set(t) == {"wall_us", "replay_wall_us", "msgs_per_sec"}, t.keys()
    assert d["msgs"] == d["accepted"] + d["shed"] and d["msgs"] > 0, d
    assert d["log_records"] == d["msgs"], "WAL must hold every offered uplink"
    assert d["log_bytes"] > 0 and d["segments"] > 0 and d["windows"] > 0, d
for p in doc["icn"]:
    d, t = p["deterministic"], p["timing"]
    assert set(d) == {
        "consumers", "nodes", "interests", "data", "cache_hits",
        "verifies", "verify_fails", "delivered",
    }, d.keys()
    assert set(t) == {"wall_us"}, t.keys()
    assert d["nodes"] == d["consumers"] + 2, d
    assert d["verify_fails"] == 0 and d["delivered"] > 0, d
assert max(p["deterministic"]["consumers"] for p in doc["icn"]) >= 16, (
    "committed icn curve must reach 16 consumers")
EOF

# Docs: deny rustdoc warnings, run every crate-level doc example.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --doc --offline --workspace

# Lints: clippy-clean across the iiot crates (vendored stand-ins are
# exempt — they mirror upstream APIs, warts and all).
# shellcheck disable=SC2046
cargo clippy --offline --all-targets \
    $(for d in vendor/*/; do printf -- '--exclude %s ' "$(basename "$d")"; done) \
    --workspace -- -D warnings

# Formatting: rustfmt must be a no-op on every iiot crate (the
# vendored stand-ins keep their upstream formatting and are exempt).
# shellcheck disable=SC2046
cargo fmt --check \
    $(for f in Cargo.toml crates/*/Cargo.toml; do \
        printf -- '-p %s ' "$(sed -n 's/^name = "\(.*\)"/\1/p' "$f" | head -1)"; done)

echo "bench smoke OK: e5 + e14 + e15 + e16 + e17 + e18 (replay==live) + shards-2 runs byte-identical at --jobs 1/2, docs + lints + fmt clean"
