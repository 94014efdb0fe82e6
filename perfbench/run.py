#!/usr/bin/env python3
"""Builds the benchmark and runs one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (its own CMake project, Release) under .bench_build/perfbench;
later runs only bring that build up to date. The run then starts one process
per round until --seconds have passed, with every JQOS_* environment
knob cleared.

--trace 0 runs the untraced program and reports the end-to-end metrics named
in BENCHMARK.json; --trace 1 runs the traced program and reports the per-layer
metrics. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Failed checks are listed on standard error. After a build failure or a
failing program, run.py exits non-zero without printing a result.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_TIMEOUT_S = 170
WORKLOADS = ("churn_web", "crwan_code", "cache_pull")
DC_LAYERS = ("services.encoder", "services.recovery", "services.caching", "endpoint.receiver")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_program(name, args, out, extra=()):
    """Runs one benchmark program and appends its output lines' values to `out`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JQOS_")}
    cmd = [os.path.join(BUILD_DIR, name), "--workload", args.workload,
           "--seed", str(args.seed)] + list(extra)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(name + " did not finish within %d s" % PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (name, proc.returncode))
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            for key, value in json.loads(line).items():
                out.setdefault(key, []).append(value)


def run_rounds(name, args, out, start):
    """Starts one-round processes of `name` until args.seconds have passed since `start`."""
    while True:
        run_program(name, args, out)
        if time.monotonic() - start >= args.seconds:
            return


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_medians(out):
    setups = out["setup"]
    return {
        "setup_s": statistics.median([s["paths_s"] + s["build_s"] for s in setups]),
        "geo.paths_s": statistics.median([s["paths_s"] for s in setups]),
        "exp.build_s": statistics.median([s["build_s"] for s in setups]),
    }


def repeat_check(name, records):
    first = records[0]
    same = all(r["digest"] == first["digest"] and r["events"] == first["events"]
               for r in records)
    return {"name": name, "ok": same,
            "detail": "%d records, digest %s" % (len(records), first["digest"])}


def end_to_end(out):
    rounds = out["round"]
    first = rounds[0]
    checks = [c for r in rounds for c in r["checks"]]
    checks.append(repeat_check("rounds.repeat_exactly", rounds))
    metrics = {
        "setup_s": setup_medians(out)["setup_s"],
        "pkts_per_s": statistics.median([r["packets"] / r["run_s"] for r in rounds]),
        "cpu_s": statistics.median([r["cpu_s"] for r in rounds]),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"]),
        "recovery_p50_ms": first["recovery_p50_ms"],
        "recovery_p99_ms": first["recovery_p99_ms"],
        "recovered_pkts": first["recovered"],
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return metrics, checks, attempted, failed


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(out):
    traced = out["traced"]
    first = traced[0]
    checks = [c for t in traced for c in t["checks"]]
    checks.append(repeat_check("traced.repeat_exactly", traced))
    packets = first["packets"]
    events = first["events"]
    metrics = setup_medians(out)
    del metrics["setup_s"]
    metrics.update({
        "netsim.events_per_pkt": ratio(events, packets),
        "workload.sessions": first["attempted"],
        "services.coded_per_data": ratio(first["coded_sent"], first["data_packets"]),
        "services.coop_success_ratio": ratio(first["coop_success"], first["coop_ops"]),
        "services.batches_expired": first["batches_expired"],
        "services.encoder.batches_per_pkt": ratio(first["batches"], packets),
        "services.recovery.nacks_per_pkt": ratio(first["nacks"], packets),
        "common.allocs_per_pkt": ratio(first["allocs"], packets),
    })
    # Time splits and pool counts exist only where the traced program could attach
    # its decorators (not churn_web, see README.md); they read 0 elsewhere.
    timed = "layers" in first
    for layer in DC_LAYERS:
        calls = first["layers"][layer]["calls"] if timed else 0
        self_s = (statistics.median([t["layers"][layer]["self_s"] for t in traced])
                  if timed else 0.0)
        metrics[layer + ".calls"] = calls
        metrics[layer + ".self_s"] = self_s
        metrics[layer + ".ns_per_call"] = ratio(self_s * 1e9, calls)
    metrics["exp.shard_max_over_mean"] = (
        statistics.median([t["shard_max_over_mean"] for t in traced]) if timed else 0.0)
    metrics["netsim.outside_ns_per_event"] = (
        ratio(statistics.median([t["outside_s"] for t in traced]) * 1e9, events) if timed else 0.0)
    metrics["common.pool_reuse_ratio"] = (
        ratio(first["pool_reused"], first["pool_reused"] + first["pool_fresh"]) if timed else 0.0)
    metrics["trace.overhead_ratio"] = 0.0
    if "reference" in out:
        ref = out["reference"][0]
        checks.append({
            "name": "traced.equals_untraced",
            "ok": ref["digest"] == first["digest"] and ref["events"] == first["events"],
            "detail": "untraced events=%d digest=%s, traced events=%d digest=%s" % (
                ref["events"], ref["digest"], events, first["digest"])})
        metrics["trace.overhead_ratio"] = ratio(
            statistics.median([t["run_s"] for t in traced]), ref["run_s"]) - 1.0
    attempted = sum(t["attempted"] for t in traced)
    failed = sum(t["failed"] for t in traced)
    return metrics, checks, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    # Every round runs in a fresh process, as a user runs a simulation once:
    # each pays the same cold start, whatever the number of rounds.
    out = {}
    start = time.monotonic()
    if args.trace:
        if args.workload != "churn_web":
            run_program("perfbench_trace", args, out, ["--untraced"])
        run_rounds("perfbench_trace", args, out, start)
        metrics, checks, attempted, failed = per_layer(out)
        wanted = spec["per_layer"]
    else:
        run_rounds("perfbench", args, out, start)
        metrics, checks, attempted, failed = end_to_end(out)
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))))

    env = dict(out["env"][0])
    env.update({"nproc": os.cpu_count(), "cpu_model": cpu_model()})
    print("env: " + json.dumps(env, sort_keys=True))
    for c in checks:
        if not c["ok"]:
            print("check failed: %s (%s)" % (c["name"], c["detail"]), file=sys.stderr)
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
