#!/usr/bin/env bash
# Tier-2 verification gate (see README "Verification tiers").
#
# Runs, in order:
#   1. Debug + ASan/UBSan build of the whole tree, full ctest.
#   2. Release (RelWithDebInfo) build, full ctest.
#   3. clang-tidy over src/ (skipped with a notice when no clang-tidy
#      binary is installed — the container ships only g++).
#   4. A --check --perturb smoke grid: every protocol runs a tiny
#      workload under the coherence sanitizer with randomized
#      schedules; any invariant violation fails the gate (ttsim
#      exits 3 and prints the minimized report). One leg of the grid
#      repeats under the ASan build so the shadow engine itself runs
#      with memory sanitizers on, in both modes (fast + paranoid).
#   4b. A 25-seed fault-campaign grid with the sanitizer enforced
#      (--campaign=25 --check per protocol over a lossy fabric):
#      always-on checking is cheap enough now (DESIGN.md §13) that
#      every campaign run validates the full invariant catalog.
#   5. A --trace smoke grid: every protocol writes a Perfetto trace
#      and a JSON stats dump; both must parse as JSON
#      (python3 -m json.tool), tools/stats_lint must accept the
#      counters-only stats dump, every delivered message id must
#      pair with a sent id, and tools/trace_lint must accept every
#      exported trace (schema, span balance, flow well-formedness).
#   6. A --faults smoke grid: a small fault campaign per protocol over
#      a lossy fabric (drop+dup+reorder) with the sanitizer on must
#      come back all-ok with real faults injected and repaired, and
#      the --no-reliable negative control must fail — proving both
#      that the transport works and that the injection has teeth.
#   7. An --analyze smoke: the sharing analyzer must classify the
#      canonical workloads correctly (mp3d migratory, em3d
#      producer-consumer), its JSON must parse, a rerun must be
#      byte-identical, and an analyze-off run must be bit-identical
#      to the analyzer-on run's simulated results (zero probe effect).
#   7b. A --trace-critical smoke: every protocol traces coherence
#      transactions and prints the critical-path report (the
#      partition identity is asserted inside the tracer); the em3d
#      golden pins the per-pattern latency breakdown to
#      producer-consumer; a faulted txn trace must pass trace_lint
#      with every retransmit tied to a transaction flow.
#   8. A crash-recovery + checkpoint/restart smoke (DESIGN.md §15):
#      every protocol survives a mid-run crash-stop node failure with
#      the sanitizer on and reproduces the crash-free checksum; a
#      checkpointing run and its restored continuation must produce
#      byte-identical stats JSON per protocol; and a sharded crash
#      campaign's shard union must equal the unsharded report.
#   9. A --telemetry smoke grid (DESIGN.md §16): every protocol, and
#      a faulted, checked stache run, reports per-subsystem memory;
#      stats_lint validates the reports; a rerun gives a
#      byte-identical report and stats dump (telemetry output is
#      deterministic); and the telemetry-off run's whole stdout and
#      counters equal the telemetry-on run's minus its telemetry
#      lines and obs.telemetry.* counters (zero probe effect); then
#      the bench_diff perf gate: the committed BENCH_simcore.json
#      passes against itself, a synthetically slowed copy fails, and
#      a fresh reduced-grid measurement keeps the committed report's
#      key structure and stays within tolerance.
#
# Usage: tools/check.sh [--skip-asan] [--skip-tidy]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_ASAN=0
SKIP_TIDY=0
for arg in "$@"; do
    case "$arg" in
        --skip-asan) SKIP_ASAN=1 ;;
        --skip-tidy) SKIP_TIDY=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

JOBS=$(nproc 2>/dev/null || echo 2)

step() { printf '\n=== %s ===\n' "$*"; }

# Fail fast, with a message naming the fix, when a build directory was
# last configured with cache settings that contradict the preset about
# to use it. CMake reuses an existing cache as-is, so a mismatched
# tree (say build/ configured by hand with TT_SANITIZE=ON) would
# otherwise "pass" the wrong gate or die in confusing link errors.
# An absent entry is fine — the upcoming configure will set it.
expect_cache() { # expect_cache <dir> <var> <want>
    local dir="$1" var="$2" want="$3" cache got
    cache="$dir/CMakeCache.txt"
    [ -f "$cache" ] || return 0
    got=$(sed -n "s/^$var:[A-Za-z]*=//p" "$cache" | head -n 1)
    if [ -n "$got" ] && [ "$got" != "$want" ]; then
        echo "check.sh: $dir was configured with $var=$got," \
             "but this step needs $var=$want." >&2
        echo "check.sh: remove $dir/ (or re-run 'cmake --preset'" \
             "for it) and retry." >&2
        exit 2
    fi
}

# --- 1. Debug + ASan/UBSan ------------------------------------------------
if [ "$SKIP_ASAN" = 0 ]; then
    step "Debug + ASan/UBSan build"
    expect_cache build-asan CMAKE_BUILD_TYPE Debug
    expect_cache build-asan TT_SANITIZE ON
    cmake --preset asan >/dev/null
    cmake --build --preset asan -j "$JOBS"
    step "ctest (asan)"
    ctest --preset asan -j "$JOBS"
else
    step "ASan build skipped (--skip-asan)"
fi

# --- 2. Release ------------------------------------------------------------
step "Release build"
expect_cache build CMAKE_BUILD_TYPE RelWithDebInfo
expect_cache build TT_SANITIZE OFF
cmake --preset release >/dev/null
cmake --build --preset release -j "$JOBS"
step "ctest (release)"
ctest --preset release -j "$JOBS"

# --- 3. clang-tidy ----------------------------------------------------------
if [ "$SKIP_TIDY" = 0 ] && command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy over src/"
    # The release tree has the compile database.
    cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src -name '*.cc' -print0 |
        xargs -0 -n 4 -P "$JOBS" clang-tidy -p build --quiet
elif [ "$SKIP_TIDY" = 0 ]; then
    step "clang-tidy not installed; skipping (config: .clang-tidy)"
else
    step "clang-tidy skipped (--skip-tidy)"
fi

# --- 4. Coherence-sanitizer smoke grid --------------------------------------
step "coherence sanitizer: --check --perturb smoke grid"
TTSIM=build/tools/ttsim
STATS_LINT=build/tools/stats_lint
for sys in dirnnb stache migratory update; do
    app=em3d
    [ "$sys" = dirnnb ] && app=mp3d
    [ "$sys" = stache ] && app=ocean
    for seed in 1 42; do
        echo "--- $sys/$app --perturb=$seed"
        "$TTSIM" --system="$sys" --app="$app" --dataset=tiny \
            --nodes=8 --check --perturb="$seed" >/dev/null
    done
done
# The shadow engine under ASan/UBSan: the fast path's packed words
# and CoW leaves, and the paranoid oracle's byte loops, both with
# randomized schedules.
if [ "$SKIP_ASAN" = 0 ]; then
    for mode in fast paranoid; do
        echo "--- stache/em3d --check=$mode --perturb=1 (asan)"
        build-asan/tools/ttsim --system=stache --app=em3d \
            --dataset=tiny --nodes=8 --check="$mode" --perturb=1 \
            >/dev/null
    done
fi

# --- 4b. Fault campaigns with the sanitizer enforced ------------------------
step "coherence sanitizer: --campaign=25 --check fault grid"
CHECKMIX='drop=0.02,dup=0.02,reorder=0.05,seed=11'
for sys in dirnnb stache migratory update; do
    echo "--- $sys/em3d --campaign=25 --check"
    "$TTSIM" --app=em3d --dataset=tiny --nodes=8 --scale=2 \
        --faults="$CHECKMIX" --campaign=25 --check \
        --systems="$sys" >/dev/null
done
# --- 5. Flight-recorder smoke grid ------------------------------------------
step "flight recorder: --trace smoke grid"
TRACEDIR=$(mktemp -d)
trap 'rm -rf "$TRACEDIR"' EXIT
for sys in dirnnb stache migratory update; do
    echo "--- $sys/em3d --trace"
    "$TTSIM" --system="$sys" --app=em3d --dataset=tiny --nodes=8 \
        --scale=4 --trace="$TRACEDIR/$sys.json" \
        --stats-json="$TRACEDIR/$sys.stats.json" >/dev/null
    python3 -m json.tool "$TRACEDIR/$sys.json" >/dev/null
    python3 -m json.tool "$TRACEDIR/$sys.stats.json" >/dev/null
    "$STATS_LINT" --stats "$TRACEDIR/$sys.stats.json"
    python3 - "$TRACEDIR/$sys.json" <<'EOF'
import json, sys
ev = json.load(open(sys.argv[1]))["traceEvents"]
sends = {e["args"]["msg"] for e in ev
         if e.get("ph") == "X" and "src" in e.get("args", {})}
delivers = {e["args"]["msg"] for e in ev
            if e.get("ph") == "i" and "msg" in e.get("args", {})}
assert sends, "trace has no message sends"
assert delivers == sends, (
    f"unpaired causal ids: {len(delivers ^ sends)}")
EOF
done
# The standalone validator over the whole smoke grid's exports.
TRACE_LINT=build/tools/trace_lint
"$TRACE_LINT" "$TRACEDIR"/dirnnb.json "$TRACEDIR"/stache.json \
    "$TRACEDIR"/migratory.json "$TRACEDIR"/update.json

# --- 6. Fault-injection smoke grid ------------------------------------------
step "fault campaign: --faults --campaign smoke grid"
FAULTMIX='drop=0.02,dup=0.02,reorder=0.05,seed=1'
"$TTSIM" --app=em3d --dataset=tiny --nodes=8 --scale=2 \
    --faults="$FAULTMIX" --campaign=2 \
    --campaign-json="$TRACEDIR/campaign.json" >/dev/null
python3 - "$TRACEDIR/campaign.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
t = rep["totals"]
assert t["ok"] == t["runs"], f"campaign not clean: {t}"
assert t["faults_injected"] > 0, "fabric was not actually lossy"
assert t["retransmits"] > 0, "transport never had to repair anything"
EOF
echo "--- campaign clean: report validated"
# Negative control: the same fabric without the reliable transport
# must NOT come back clean (watchdog trip / deadlock / violation →
# ttsim exits 3 or 4; anything else, including 0, fails the gate).
rc=0
"$TTSIM" --app=em3d --dataset=tiny --nodes=8 --scale=2 \
    --faults="$FAULTMIX" --no-reliable --horizon=20000 \
    --campaign=1 --systems=stache >/dev/null 2>&1 || rc=$?
if [ "$rc" != 3 ] && [ "$rc" != 4 ]; then
    echo "negative control: expected exit 3/4, got $rc" >&2
    exit 1
fi
echo "--- negative control failed as required (exit $rc)"

# --- 7. Sharing-analyzer smoke ----------------------------------------------
step "sharing analyzer: --analyze smoke"
echo "--- migratory/mp3d --analyze"
"$TTSIM" --system=migratory --app=mp3d --dataset=tiny --nodes=8 \
    --analyze="$TRACEDIR/mp3d.analyze.json" \
    > "$TRACEDIR/mp3d.analyze.txt"
grep -q "dominant sharing pattern: migratory" "$TRACEDIR/mp3d.analyze.txt"
echo "--- stache/em3d --analyze"
"$TTSIM" --system=stache --app=em3d --dataset=tiny --nodes=8 \
    --analyze="$TRACEDIR/em3d.analyze.json" \
    > "$TRACEDIR/em3d.analyze.txt"
grep -q "dominant sharing pattern: producer-consumer" \
    "$TRACEDIR/em3d.analyze.txt"
python3 -m json.tool "$TRACEDIR/mp3d.analyze.json" >/dev/null
python3 -m json.tool "$TRACEDIR/em3d.analyze.json" >/dev/null
# Rerun byte-identity: the analyzer is deterministic end to end
# (same command again, stdout and JSON must match byte for byte).
cp "$TRACEDIR/em3d.analyze.json" "$TRACEDIR/em3d.analyze.json.first"
"$TTSIM" --system=stache --app=em3d --dataset=tiny --nodes=8 \
    --analyze="$TRACEDIR/em3d.analyze.json" \
    > "$TRACEDIR/em3d.analyze2.txt"
diff "$TRACEDIR/em3d.analyze.txt" "$TRACEDIR/em3d.analyze2.txt"
diff "$TRACEDIR/em3d.analyze.json.first" "$TRACEDIR/em3d.analyze.json"
# Zero probe effect: the simulated results (execution time, checksum,
# stats) of an analyze-off run must be bit-identical to analyze-on.
"$TTSIM" --system=stache --app=em3d --dataset=tiny --nodes=8 \
    > "$TRACEDIR/em3d.plain.txt"
grep -E 'execution time|checksum' "$TRACEDIR/em3d.plain.txt" \
    > "$TRACEDIR/em3d.plain.key"
grep -E 'execution time|checksum' "$TRACEDIR/em3d.analyze.txt" \
    > "$TRACEDIR/em3d.analyze.key"
diff "$TRACEDIR/em3d.plain.key" "$TRACEDIR/em3d.analyze.key"
echo "--- analyzer deterministic, classification correct, no probe effect"

# --- 7b. Transaction tracer smoke -------------------------------------------
step "transaction tracer: --trace-critical smoke"
for sys in dirnnb stache migratory update; do
    echo "--- $sys/em3d --trace-critical"
    "$TTSIM" --system="$sys" --app=em3d --dataset=tiny --nodes=8 \
        --scale=4 --trace-critical="$TRACEDIR/$sys.txn.json" \
        > "$TRACEDIR/$sys.txn.txt"
    grep -q "coherence-transaction critical path" "$TRACEDIR/$sys.txn.txt"
    python3 -m json.tool "$TRACEDIR/$sys.txn.json" >/dev/null
done
# Golden per-pattern latency breakdown on em3d: wall time concentrates
# in the producer-consumer class the workload was built around.
"$TTSIM" --system=stache --app=em3d --dataset=tiny --nodes=8 \
    --trace-critical > "$TRACEDIR/em3d.txn.txt"
grep -q "dominant pattern by wall time: producer-consumer" \
    "$TRACEDIR/em3d.txn.txt"
grep -q "producer-consumer: .* txns" "$TRACEDIR/em3d.txn.txt"
# Composition with --faults and --trace: retransmit spans stay tied
# to their transaction, and the flow graph passes the linter.
"$TTSIM" --system=stache --app=em3d --dataset=tiny --nodes=8 \
    --scale=2 --faults='drop=0.02,dup=0.02,reorder=0.05,seed=7' \
    --trace-critical --trace="$TRACEDIR/txn.faults.json" \
    > "$TRACEDIR/txn.faults.txt"
grep -qE "transactions: .* [1-9][0-9]* retransmit-affected" \
    "$TRACEDIR/txn.faults.txt"
"$TRACE_LINT" "$TRACEDIR/txn.faults.json"
echo "--- transaction tracer: all four systems, golden + faults OK"

# --- 8. Crash recovery + checkpoint/restart ---------------------------------
step "crash recovery: crash@ --check smoke grid"
for sys in dirnnb stache migratory update; do
    echo "--- $sys/em3d crash@30000:3 --check"
    "$TTSIM" --system="$sys" --app=em3d --dataset=tiny --nodes=8 \
        --faults='crash@30000:3,seed=5' --check=fast \
        > "$TRACEDIR/$sys.crash.txt"
    grep -q "1 crash(es) injected, 1 recovery(ies) completed" \
        "$TRACEDIR/$sys.crash.txt"
    # The recovered run recomputes the crash-free result exactly.
    "$TTSIM" --system="$sys" --app=em3d --dataset=tiny --nodes=8 \
        --check=fast > "$TRACEDIR/$sys.nocrash.txt"
    grep 'checksum' "$TRACEDIR/$sys.crash.txt" > "$TRACEDIR/$sys.crash.key"
    grep 'checksum' "$TRACEDIR/$sys.nocrash.txt" > "$TRACEDIR/$sys.nocrash.key"
    diff "$TRACEDIR/$sys.crash.key" "$TRACEDIR/$sys.nocrash.key"
done
echo "--- all four systems recover to the crash-free checksum"

step "checkpoint/restart: byte-identity grid"
for sys in dirnnb stache migratory update; do
    echo "--- $sys/em3d --checkpoint=2 / --restore"
    "$TTSIM" --system="$sys" --app=em3d --dataset=tiny --nodes=8 \
        --check --checkpoint=2,"$TRACEDIR/$sys.ckpt" \
        --stats-json="$TRACEDIR/$sys.ckpt.a.json" >/dev/null
    "$TTSIM" --system="$sys" --app=em3d --dataset=tiny --nodes=8 \
        --check --restore="$TRACEDIR/$sys.ckpt" \
        --stats-json="$TRACEDIR/$sys.ckpt.b.json" >/dev/null
    diff "$TRACEDIR/$sys.ckpt.a.json" "$TRACEDIR/$sys.ckpt.b.json"
done
echo "--- checkpoint/restore stats byte-identical on all four systems"

step "crash campaign: shard union identity"
CRASHMIX='drop=0.005,crash@30000:3,seed=5'
"$TTSIM" --app=em3d --dataset=tiny --nodes=8 --scale=4 \
    --faults="$CRASHMIX" --campaign=4 --systems=stache \
    --campaign-json="$TRACEDIR/camp.whole.json" >/dev/null
for shard in 0 1; do
    "$TTSIM" --app=em3d --dataset=tiny --nodes=8 --scale=4 \
        --faults="$CRASHMIX" --campaign=4 --systems=stache \
        --campaign-shard=$shard/2 \
        --campaign-json="$TRACEDIR/camp.s$shard.json" >/dev/null
done
python3 - "$TRACEDIR" <<'EOF'
import json, sys
d = sys.argv[1]
whole = json.load(open(f"{d}/camp.whole.json"))
merged = []
for s in (0, 1):
    rep = json.load(open(f"{d}/camp.s{s}.json"))
    assert rep["shard"] == {"index": s, "count": 2}, rep["shard"]
    merged += rep["runs"]
merged.sort(key=lambda r: r["index"])
key = lambda r: {k: r[k] for k in
                 ("index", "system", "seed", "outcome", "cycles")}
assert [key(r) for r in merged] == [key(r) for r in whole["runs"]], \
    "shard union != unsharded campaign"
rec = whole["recovery"]
assert rec["crashes_injected"] == 4 and rec["crashes_survived"] == 4, rec
EOF
echo "--- shard union equals unsharded; 4/4 crashes survived"

# --- 9. Self-telemetry + perf-regression gate -------------------------------
step "telemetry: --telemetry smoke grid"
# telem_case <name> <ttsim args...>: one configuration, run telemetry
# on, telemetry on again, and telemetry off. Every run writes its
# stats dump to the same path, so the "stats json" stdout lines match.
telem_case() {
    local name="$1"
    shift
    local p="$TRACEDIR/telem.$name"
    echo "--- $name --telemetry"
    "$TTSIM" "$@" --stats-json="$p.stats.json" \
        --telemetry="$p.telem.json" > "$p.on.txt"
    cp "$p.stats.json" "$p.on.stats.json"
    cp "$p.telem.json" "$p.on.telem.json"
    "$STATS_LINT" --telemetry "$p.on.telem.json" \
        --stats "$p.on.stats.json"
    # Rerun identity: telemetry reports memory only, so the same run
    # twice writes a byte-identical report and stats dump.
    "$TTSIM" "$@" --stats-json="$p.stats.json" \
        --telemetry="$p.telem.json" >/dev/null
    cmp "$p.on.telem.json" "$p.telem.json"
    cmp "$p.on.stats.json" "$p.stats.json"
    # Zero probe effect: the telemetry-off run prints the on run's
    # whole stdout minus its telemetry lines, and dumps its counters
    # minus obs.telemetry.*.
    "$TTSIM" "$@" --stats-json="$p.stats.json" > "$p.off.txt"
    grep -v '^telemetry' "$p.on.txt" | diff - "$p.off.txt"
    python3 - "$p.on.stats.json" "$p.stats.json" <<'EOF'
import json, sys
on, off = (json.load(open(f))["counters"] for f in sys.argv[1:])
on = {k: v for k, v in on.items() if not k.startswith("obs.telemetry.")}
assert on == off, sorted(set(on.items()) ^ set(off.items()))
EOF
}
for sys in dirnnb stache migratory update; do
    telem_case "$sys" --system="$sys" --app=em3d --dataset=tiny \
        --nodes=8 --scale=4
done
telem_case stache-faults --system=stache --app=em3d --dataset=tiny \
    --nodes=8 --scale=2 --check \
    --faults='drop=0.02,dup=0.02,reorder=0.05,seed=7'
echo "--- telemetry: deterministic, lint-clean, no probe effect"

step "perf gate: bench_diff"
BENCH_DIFF=build/tools/bench_diff
# The committed baseline can never regress against itself.
"$BENCH_DIFF" BENCH_simcore.json BENCH_simcore.json >/dev/null
# Teeth: a synthetically slowed copy must fail the gate.
python3 - BENCH_simcore.json "$TRACEDIR/bench.regressed.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d["events_per_sec"] *= 0.5
for c in d["cases"]:
    c["wall_ms"] *= 2
json.dump(d, open(sys.argv[2], "w"))
EOF
rc=0
"$BENCH_DIFF" BENCH_simcore.json "$TRACEDIR/bench.regressed.json" \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" != 1 ]; then
    echo "bench_diff: expected exit 1 on synthetic regression, got $rc" >&2
    exit 1
fi
# A fresh reduced-grid measurement (em3d only, smallest footprint
# point) against the committed baseline filtered to the same subset.
# Generous tolerances absorb host noise: this is a cliff detector,
# not a microbenchmark (DESIGN.md §16).
python3 - BENCH_simcore.json "$TRACEDIR/bench.baseline.reduced.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d["cases"] = [c for c in d["cases"] if c["app"] == "em3d"]
ev = sum(c["events"] for c in d["cases"])
wall = sum(c["wall_ms"] for c in d["cases"])
d["total_events"], d["total_wall_ms"] = ev, wall
d["events_per_sec"] = ev / (wall / 1000.0)
if "mem_footprint" in d:
    d["mem_footprint"]["entries"] = [
        e for e in d["mem_footprint"]["entries"] if e["nodes"] == 32]
json.dump(d, open(sys.argv[2], "w"))
EOF
# The strict 1.05x telemetry bound is enforced by the full-grid run
# that produces BENCH_simcore.json; this short reduced run measures
# overhead over tiny wall intervals on a loaded CI host, so it gets
# the same loosening as the bench_diff tolerances below.
TT_APPS=em3d TT_FOOTPRINT_NODES=32 TT_TELEMETRY_BOUND=1.5 \
    TT_BENCH_JSON="$TRACEDIR/bench.fresh.json" \
    build/bench/bench_simcore > "$TRACEDIR/bench.fresh.txt"
# The report writer is table-driven; it must keep the committed
# report's shape: the ordered keys of every object, with one element
# standing for each list (one case, one footprint entry).
python3 - BENCH_simcore.json "$TRACEDIR/bench.fresh.json" <<'EOF'
import json, sys
def keys(v, path="$"):
    if isinstance(v, dict):
        yield path, list(v)
        for k, x in v.items():
            yield from keys(x, f"{path}.{k}")
    elif isinstance(v, list) and v:
        yield from keys(v[0], f"{path}[0]")
base, fresh = (dict(keys(json.load(open(f)))) for f in sys.argv[1:])
bad = sorted(p for p in base.keys() | fresh.keys()
             if base.get(p) != fresh.get(p))
assert not bad, f"bench report key structure drifted at {bad}"
EOF
"$BENCH_DIFF" "$TRACEDIR/bench.baseline.reduced.json" \
    "$TRACEDIR/bench.fresh.json" --tol-evsec=0.5 --tol-mem=0.25
echo "--- perf gate: self-check, synthetic teeth, fresh reduced grid" \
    "(structure + tolerance) OK"

echo
echo "check.sh: all gates passed"
