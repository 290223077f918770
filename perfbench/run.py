#!/usr/bin/env python3
"""Simulator benchmark: three workloads through one timed path.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --describe     # every metric, unit, meaning
  python3 perfbench/run.py --selftest     # seam self-test (GoogleTest)

W is em3d-stache, mp3d-dirnnb or fault-campaign (perfbench/spec.json
says why each was chosen and which layers it uses or bypasses).

Each run builds the simulator libraries from ../src and the measuring
program ttbench (perfbench/ttbench.cc) into .bench_build/perfbench,
computes the reference checksums for the seed with untimed runs
(cached in .bench_build/perfbench/cache.json), then measures: ttbench
repeats the workload instance for S seconds. run_s sums each slice of
the simulations (256 access() calls) at its fastest over the
repetitions; the other times are medians over the repetitions.
--trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports the per-layer metrics from a traced
run. A stamped report goes to .bench_build/perfbench/reports/, and
the last line of standard output is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every simulation is one operation. It fails if its outcome is not ok,
if its checksum differs from the reference for its app and seed, or if
it does not reproduce the cycles of the seed's first run exactly.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = HERE / "spec.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("em3d-stache", "mp3d-dirnnb", "fault-campaign")
TTBENCH_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(target):
    """Configure once, then bring @target up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources not found: expected src/ next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)


def ttbench(args):
    cmd = [str(BUILD / "ttbench")] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=TTBENCH_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("ttbench timed out: " + " ".join(cmd), 4)
    if p.returncode:
        fail("ttbench failed (%d): %s" % (p.returncode, " ".join(cmd)), 4)
    return json.loads(p.stdout)


def source_digest():
    """sha256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except OSError:
        return "none"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def references(workload, seed, cache, key):
    """Checksums of the untimed reference runs for this seed."""
    entry = cache.setdefault(key, {})
    if "refs" not in entry:
        ref = ttbench(["reference", "--workload=" + workload,
                      "--seed=%d" % seed])
        entry["refs"] = {"systems": ref["systems"],
                         "results": ref["results"]}
    return entry["refs"]


def check(workload, seed, spec, meas, refs, entry):
    """Count attempted and failed simulations; note why any failed."""
    problems = []
    by_system = dict(zip(refs["systems"], refs["results"]))
    for system, r in by_system.items():
        if r["outcome"] != "ok":
            problems.append("reference run on %s: %s" % (system, r["outcome"]))
    oracle = spec["oracle"][workload]
    if seed == oracle["seed"]:
        for system, want in oracle["checksums"].items():
            got = by_system.get(system, {}).get("checksum")
            if got != want:
                problems.append("%s checksum %s differs from the recorded "
                                "oracle %s" % (system, got, want))

    def ref_checksum(i):
        if workload == "fault-campaign":
            return by_system[meas["sims"][i]["system"]]["checksum"]
        return refs["results"][0]["checksum"]

    first = next(r for r in meas["reps"] if r["kind"] == "plain")
    cycles = entry.get("cycles") or [r["cycles"] for r in first["results"]]
    # A reference that disagrees with itself or the oracle fails every
    # simulation of the run.
    bad_reference = bool(problems)
    attempted = failed = 0
    for rep in meas["reps"]:
        for i, r in enumerate(rep["results"]):
            attempted += 1
            why = None
            if r["outcome"] != "ok":
                why = "outcome %s: %s" % (r["outcome"], r.get("detail", ""))
            elif r["checksum"] != ref_checksum(i):
                why = "checksum %s != reference %s" % (r["checksum"],
                                                      ref_checksum(i))
            elif r["cycles"] != cycles[i]:
                why = "cycles %d != %d" % (r["cycles"], cycles[i])
            if why or bad_reference:
                failed += 1
                if why and len(problems) < 20:
                    problems.append("%s rep sim %d (%s): %s" % (
                        rep["kind"], i, meas["sims"][i]["system"], why))
    if meas["run_s_fastest"] < 0:
        problems.append("repetitions split a simulation into different "
                        "numbers of slices")
    if not failed and "cycles" not in entry:
        entry["cycles"] = cycles
    return attempted, failed, problems, sum(cycles)


def reps_of(meas, kind):
    return [r for r in meas["reps"] if r["kind"] == kind]


def end_to_end(meas, sim_cycles):
    plain = reps_of(meas, "plain")
    return {
        "run_s": meas["run_s_fastest"],
        "setup_s": median([r["setup_s"] for r in plain] +
                          meas["setup_passes"]),
        "peak_rss_mb": meas["peak_rss_kb"] / 1024.0,
        "sim_cycles": sim_cycles,
    }


def per_layer(meas):
    traced = reps_of(meas, "traced")
    layers = [r["layers"] for r in traced]

    def med(name):
        return median([l[name] for l in layers])

    plain_run = median([r["run_s"] for r in reps_of(meas, "plain")])
    m = {}
    for name in ("config.build_s", "config.teardown_s", "apps.setup_s",
                 "apps.finish_s", "core.run_s", "check.finalize_s",
                 "obs.fold_s", "memsys.access_s", "memsys.access_s_err"):
        m[name] = med(name)
    last = layers[-1]
    m["core.events"] = last["core.events"]
    m["core.ns_per_event"] = median(
        [l["core.run_s"] / l["core.events"] * 1e9 for l in layers])
    m["core.event_loop_s"] = median(
        [l["core.run_s"] - l["memsys.access_s"] for l in layers])
    m["memsys.access_calls"] = last["memsys.access_calls"]
    m["memsys.inline_pct"] = (100.0 * last["memsys.inline_calls"] /
                              last["memsys.access_calls"])
    m["memsys.ns_per_access"] = median(
        [l["memsys.access_s"] / l["memsys.access_calls"] * 1e9
         for l in layers])
    m.update(last["counts"])  # exact, identical in every traced rep
    for toggle in ("check", "obs"):
        off = reps_of(meas, "no_" + toggle)
        m[toggle + ".marginal_s"] = (
            plain_run - median([r["run_s"] for r in off]) if off else 0.0)
    mem = reps_of(meas, "telemetry")[-1]["mem_peak_mb"]
    for probe, mb in mem.items():
        m["mem.%s_peak_mb" % probe] = mb
    m["trace.overhead"] = median([r["run_s"] for r in traced]) / plain_run
    return m


def describe():
    bench = load_json(BENCHMARK)
    spec = load_json(SPEC)
    for kind in ("end_to_end", "per_layer"):
        print("%s metrics:" % kind.replace("_", "-"))
        for m in bench[kind]:
            print("  %-24s %-7s %-6s %s" % (
                m["name"], m["unit"], m["better"],
                spec["metrics"].get(m["name"], "")))
    print("workloads:")
    for w in bench["workloads"]:
        print("  %-15s %s" % (w["name"], w["why"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if not SPEC.is_file():
        fail("perfbench/spec.json is missing")
    if a.describe:
        describe()
        return
    if a.selftest:
        build("ttbench_selftest")
        sys.exit(subprocess.run([str(BUILD / "ttbench_selftest")]).returncode)
    if a.workload is None or a.seed is None or a.seed < 0:
        fail("--workload and a non-negative --seed are required")
    if not 0 < a.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    spec = load_json(SPEC)
    build("ttbench")
    cache_path = BUILD / "cache.json"
    cache = load_json(cache_path) if cache_path.is_file() else {}
    # Keyed by the sources too: an edited simulator starts a new cache.
    digest = source_digest()
    key = "%s|%d|%s" % (a.workload, a.seed, digest)
    refs = references(a.workload, a.seed, cache, key)

    spans = BUILD / "reports" / ("%s-seed%d-spans.json" % (a.workload, a.seed))
    spans.parent.mkdir(parents=True, exist_ok=True)
    meas = ttbench(["measure", "--workload=" + a.workload,
                   "--seed=%d" % a.seed, "--seconds=%g" % a.seconds,
                   "--trace=%d" % a.trace]
                  + (["--spans=" + str(spans)] if a.trace else []))
    entry = cache[key]
    attempted, failed, problems, sim_cycles = check(
        a.workload, a.seed, spec, meas, refs, entry)
    with open(cache_path, "w") as f:
        json.dump(cache, f, indent=1, sort_keys=True)

    measured = (end_to_end(meas, sim_cycles) if a.trace == 0
                else per_layer(meas))
    bench = load_json(BENCHMARK)
    wanted = bench["end_to_end" if a.trace == 0 else "per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("no measurement for " + ", ".join(missing), 5)
    metrics = {m["name"]: measured[m["name"]] for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    kinds = {"setup_passes": len(meas["setup_passes"]),
             "slices": meas["slices"]}
    for r in meas["reps"]:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    stamp = {
        "workload": a.workload, "trace": a.trace,
        "build_type": meas["build_type"], "compiler": meas["compiler"],
        "nproc": os.cpu_count(), "commit": commit(),
        "source_sha256": digest, "seconds": a.seconds,
        "measured_s": meas["wall_s"], "samples": kinds,
        "seeds": {"seed": a.seed, "app_seed": meas["sims"][0]["app_seed"],
                  "fault_seeds": [s["fault_seed"] for s in meas["sims"]
                                  if "fault_seed" in s]},
    }
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    report = dict(result, stamp=stamp, problems=problems,
                  reps=[{k: r[k] for k in ("kind", "setup_s", "run_s")}
                        for r in meas["reps"]])
    out = BUILD / "reports" / ("%s-seed%d-trace%d.json" %
                               (a.workload, a.seed, a.trace))
    with open(out, "w") as f:
        json.dump(report, f, indent=1)

    for p in problems:
        print("perfbench: FAILED " + p, file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for k, v in metrics.items():
        print("  %-24s %16.6g %s" % (k, v, units[k]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
