#!/usr/bin/env python3
"""End-to-end benchmark of the versa runtime.

Builds the harness (e2ebench/CMakeLists.txt, runtime sources from ../src)
into .bench_build/e2ebench, runs one workload for a fixed time, checks its
outputs, prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload paper-sim --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --selftest

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced episodes, reports the per-layer metrics from
the traced ones, and prints both sets of end-to-end values with the
difference as tracing overhead.

Every episode builds its own runtime; episodes run in a harness child
process. A child that dies (for example on a VERSA_CHECK abort) loses only
the episode it was running: its operations count as failed, the message is
printed, and the next planned episode starts in a new child. Nothing is
retried or re-seeded.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
HARNESS = os.path.join(BUILD_DIR, "e2ebench_harness")
WORKLOADS = ("paper-sim", "service-sim", "hetero-threads", "service-churn")
# Host-speed normalisation. On a shared host the speed of the same code
# drifts by 20% and more over tens of seconds, as other tenants load the
# cores and caches; no longer run averages that out. Each episode is
# bracketed by a fixed reference loop that does not depend on the runtime
# (probe_s, the mean of the two). Wall-clock end-to-end metrics are scaled
# per episode to a host on which that loop takes REFERENCE_PROBE_S, which
# cancels the drift; the report prints the raw values next to them.
REFERENCE_PROBE_S = 0.025
# Hard limit on one run's wall time after the build: the measured seconds
# plus this much for the episode still in flight and restarts after crashes.
GRACE_SECONDS = 60.0


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        fail("runtime sources not found next to the benchmark directory")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def compiler_name():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(cache, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                return os.path.basename(line.strip().split("=", 1)[1])
    return "unknown"


def run_episodes(workload, seed, seconds, trace, tiny):
    """Run the harness until `seconds` have been measured. If it dies, the
    episode in flight is lost (its ops count as failed) and a new harness
    process continues at the next planned episode."""
    run = {"host": None, "episodes": [], "crashes": [], "attempted": 0,
           "failed": 0}
    start = time.monotonic()
    next_episode = 0
    while True:
        elapsed = time.monotonic() - start
        kinds = {e["traced"] for e in run["episodes"] if not e["warmup"]}
        enough = 0 in kinds and (1 in kinds or not trace)
        if (elapsed >= seconds and enough) or elapsed >= seconds + GRACE_SECONDS:
            break
        cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(max(seconds - elapsed, 0.0)),
               "--trace", "1" if trace else "0",
               "--first-episode", str(next_episode)]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        budget = max(seconds + GRACE_SECONDS - elapsed, 1.0)
        try:
            out, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\nharness killed after %.0f s" % budget
        pending = None
        for line in out.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if "host" in record:
                run["host"] = record["host"]
            elif "begin" in record:
                pending = record
            elif "episode" in record:
                pending = None
                run["episodes"].append(record)
                run["attempted"] += record["ops"]
                run["failed"] += record["failed"]
        if proc.returncode == 0:
            break
        lines = [l for l in err.splitlines() if l.strip()]
        episode = pending["begin"] if pending else next_episode
        ops = pending["ops"] if pending else 0
        run["attempted"] += ops
        run["failed"] += ops
        run["crashes"].append({"episode": episode,
                               "returncode": proc.returncode,
                               "message": lines[-1] if lines else "no message",
                               "ops": ops})
        next_episode = episode + 1
    return run


def end_to_end(episodes, normalise=True):
    """Medians over episodes; latency percentiles are taken per episode.
    With `normalise`, wall-clock durations are scaled to the reference host
    speed (see REFERENCE_PROBE_S)."""
    def scale(e):
        return REFERENCE_PROBE_S / e["probe_s"] if normalise else 1.0

    def median_of(key):
        return statistics.median(key(e) for e in episodes)
    return {
        "setup_s": median_of(lambda e: e["setup_s"] * scale(e)),
        "tasks_per_s": median_of(lambda e: e["tasks"] / (e["run_s"] * scale(e))),
        "graphs_per_s": median_of(
            lambda e: e["graphs"] / (e["run_s"] * scale(e))),
        "graph_latency_p50_us": median_of(
            lambda e: e["latency_p50_us"] * scale(e)),
        "graph_latency_p99_us": median_of(
            lambda e: e["latency_p99_us"] * scale(e)),
        "virtual_makespan_s": median_of(
            lambda e: e["makespan_s"] * (1.0 if e["virtual_clock"]
                                         else scale(e))),
        "peak_rss_mb": median_of(lambda e: e["rss_mb"]),
    }


def per_layer(episodes):
    keys = sorted({k for e in episodes for k in e["layer"]})
    return {k: statistics.median(e["layer"][k] for e in episodes
                                 if k in e["layer"]) for k in keys}


def fmt(value):
    return "%.6g" % value


def report(args, run, bench, catalogue):
    """Print the human-readable report; return the result object."""
    # Warm-up episodes are checked and counted but not timed.
    measured = [e for e in run["episodes"] if not e["warmup"]]
    untraced = [e for e in measured if not e["traced"]]
    traced = [e for e in measured if e["traced"]]
    if not untraced or (args.trace and not traced):
        for crash in run["crashes"]:
            print("crash: episode %d: %s" % (crash["episode"], crash["message"]))
        fail("no complete episode to report")
    host = run["host"] or {}
    share_failed = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    ops = catalogue["ops"][args.workload]

    print("# e2ebench workload=%s seed=%d seconds=%d trace=%d%s" % (
        args.workload, args.seed, args.seconds, args.trace,
        " tiny" if args.tiny else ""))
    print("# host: nproc=%d hardware_concurrency=%s compiler=%s %s "
          "build_type=%s python=%s" % (
              os.cpu_count() or 0, host.get("hardware_concurrency", "?"),
              compiler_name(), host.get("compiler", "?"),
              host.get("build_type", "?"), platform.python_version()))
    print("# episodes: %d untraced, %d traced, %d warm-up, %d crashed; "
          "%d %s attempted, %d failed" % (
              len(untraced), len(traced), len(run["episodes"]) - len(measured),
              len(run["crashes"]), run["attempted"], ops, run["failed"]))
    for crash in run["crashes"]:
        print("crash: episode %d exited with code %d, %d %s lost: %s" % (
            crash["episode"], crash["returncode"], crash["ops"], ops,
            crash["message"]))
    violations = sorted({v for e in run["episodes"] for v in e["violations"]})
    for violation in violations:
        print("violation: " + violation)

    metrics = {}
    e2e = end_to_end(untraced)
    e2e["ops_ok_share"] = 1.0 - share_failed
    print("end_to_end ops_failed_share %s ratio (base: %d %s)" % (
        fmt(share_failed), run["attempted"], ops))
    if args.trace:
        e2e_traced = end_to_end(traced)
        print("# end-to-end from %d untraced vs %d traced episodes; "
              "overhead = traced / untraced - 1" % (len(untraced), len(traced)))
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in e2e_traced:
                continue
            base = e2e[name]
            overhead = e2e_traced[name] / base - 1.0 if base else 0.0
            print("end_to_end %-22s %12s %-5s traced %12s overhead %+.1f%%" % (
                name, fmt(base), m["unit"], fmt(e2e_traced[name]),
                100.0 * overhead))
        layer = per_layer(traced)
        moves = catalogue["moves"]
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            print("per_layer  %-34s %12s %-6s moves %s" % (
                m["name"], fmt(layer[m["name"]]), m["unit"], moves[m["name"]]))
        for m in catalogue["report_only"]:
            if args.workload in m["workloads"]:
                print("per_layer  %-34s %12s %-6s moves %s (%s only)" % (
                    m["name"], fmt(layer[m["name"]]), m["unit"], m["moves"],
                    ", ".join(m["workloads"])))
        print("# ratio bases: %d tasks, %d reprice requests, %d graphs per "
              "traced episode (median)" % (
                  layer["base.tasks"], layer["base.reprice_requests"],
                  layer["base.graphs"]))
    else:
        raw = end_to_end(untraced, normalise=False)
        print("# end-to-end: medians over %d episodes; latency percentiles "
              "per episode over %d graphs; host probe median %s s, wall "
              "clock scaled to a %s s probe" % (
                  len(untraced), untraced[0]["graphs"],
                  fmt(statistics.median(e["probe_s"] for e in untraced)),
                  fmt(REFERENCE_PROBE_S)))
        for m in bench["end_to_end"]:
            name = m["name"]
            metrics[name] = {"value": e2e[name], "unit": m["unit"]}
            print("end_to_end %-22s %12s %-5s raw %12s" % (
                name, fmt(e2e[name]), m["unit"], fmt(raw.get(name, e2e[name]))))
    return {"correct": not violations, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def measure(args, bench, catalogue):
    run = run_episodes(args.workload, args.seed, args.seconds, args.trace,
                       args.tiny)
    return report(args, run, bench, catalogue)


def selftest(bench, catalogue):
    """Tiny pass: every output check fires on a fabricated violation, and
    every metric is emitted with its unit on every workload."""
    problems = []
    if subprocess.run([HARNESS, "--selftest"]).returncode:
        problems.append("harness output-check self-test failed")
    for m in bench["per_layer"]:
        if m["name"] not in catalogue["moves"]:
            problems.append("no moves target for " + m["name"])
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      trace=trace, tiny=True)
            result = measure(args, bench, catalogue)
            wanted = bench["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%d: %s missing or wrong unit" % (
                        workload, trace, m["name"]))
                elif not isinstance(got["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (workload,
                                                                m["name"]))
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append("%s trace=%d: unexpected metric set" % (
                    workload, trace))
            if not result["correct"]:
                problems.append("%s trace=%d: output check failed" % (
                    workload, trace))
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test sizes)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("BENCHMARK.json not found at the repository root")
    bench = load_json(bench_path)
    catalogue = load_json(os.path.join(HERE, "metrics.json"))
    build()
    if args.selftest:
        sys.exit(selftest(bench, catalogue))
    result = measure(args, bench, catalogue)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
