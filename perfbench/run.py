#!/usr/bin/env python3
"""The repository benchmark (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload stream_flat --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (the library from src/ plus dhtidx_perfbench) into
.bench_build/, then runs one workload. Every simulation runs in a fresh
process of dhtidx_perfbench, so each peak-RSS reading covers one run only.

--trace 0 measures the end-to-end metrics with tracing off: one
sim::run_simulation call per world, on worlds drawn from --seed until
--seconds have passed, every metric the median over them. --trace 1 measures
the per-layer metrics from a traced run and writes its spans as a Chrome
trace-event file under .bench_build/traces/.

Both modes run the output check, which compares result digests: a traced
one-shard run against an untraced nproc-shard run of the same feed prefix
(stream_* workloads), and the in-process twin against the event-queue run
(paper_wire). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dhtidx_perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

# --trace 0 measures one world per run_simulation call and keeps starting
# worlds until --seconds have passed, at least MIN_WORLDS and at most
# MAX_WORLDS of them; every metric is the median over the worlds. Worlds differ
# in corpus and query stream (the flat scheme's bytes per query spread by about
# 10% across seeds), so a run covers several instead of repeating one. On a
# host whose speed swings, the time budget bounds the run's length while the
# work per world stays fixed.
MIN_WORLDS = 3
MAX_WORLDS = 16

# Per workload: queries per measured world (the world shape is fixed in
# perfbench.cpp), and the feed prefix that the output check and the
# --trace 1 runs use, several of which run at one shard.
QUERIES = {
    "stream_flat": 40000,
    "stream_cached": 60000,
    "paper_wire": 15000,
}
PREFIX_QUERIES = {
    "stream_flat": 10000,
    "stream_cached": 20000,
    "paper_wire": 25000,
}

# Query prefix of the materialized wire twins that price the transport on the
# streamed workloads (paper_wire's own runs are materialized already).
TWIN_QUERIES = 2000

# Every layer call the traced run must record as a child of each session.
LAYER_SPANS = [
    "workload.request", "query.key", "query.intern_probe", "index.resolve",
    "dht.route", "index.probe", "storage.get", "net.encode", "net.decode",
]


def metric_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or
    "per_layer"); the report prints them in that order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class CheckFailed(Exception):
    """The output check found a wrong or non-deterministic result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds dhtidx_perfbench; build output goes to
    stderr so stdout stays the benchmark's report."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: no library sources at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc())])
    # Compiler temporaries stay inside the checkout too.
    scratch = os.path.join(BUILD, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(step))


def simulate(mode, workload, seed, queries, smoke, *extra):
    """One fresh dhtidx_perfbench process; returns its JSON report."""
    command = [BINARY, mode, "--workload", workload, "--seed", str(seed),
               "--queries", str(queries)] + [str(arg) for arg in extra]
    if smoke:
        command.append("--smoke")
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if result.returncode != 0:
        raise CheckFailed("%s exited with %d" % (" ".join(command), result.returncode))
    report = json.loads(result.stdout.strip().splitlines()[-1])
    log("[perfbench] %s %s: %s" % (mode, workload, " ".join(
        "%s=%s" % (key, report[key]) for key in
        ("shards", "queries", "wall_s", "build_s", "feed_s", "setup_s") if key in report)))
    return report


def expect_same(what, reference, other):
    if reference["digest"] != other["digest"]:
        raise CheckFailed("%s: digests differ\n  %s\n  %s"
                          % (what, reference["digest"], other["digest"]))


def check_trace_file(path, sessions):
    """Every session span of the trace file has one child per layer call."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    session_ids = {e["args"]["id"] for e in events if e["name"] == "session"}
    if len(session_ids) != sessions:
        raise CheckFailed("%s: %d session spans, expected %d" % (path, len(session_ids), sessions))
    children = {}
    for event in events:
        if event["args"]["parent"] in session_ids:
            children.setdefault(event["name"], set()).add(event["args"]["parent"])
    for name in LAYER_SPANS:
        if children.get(name, set()) != session_ids:
            raise CheckFailed("%s: not every session has a %s span" % (path, name))
    for name in ("sim.build", "sim.feed"):
        if not any(e["name"] == name for e in events):
            raise CheckFailed("%s: no %s span" % (path, name))


def traced_run(workload, seed, queries, smoke, name):
    """The traced process; its trace file is TRACES/<workload>-<name>.json,
    overwritten by the next run of the same kind."""
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, "%s-%s.json" % (workload, name))
    report = simulate("trace", workload, seed, queries, smoke, "--out", path)
    check_trace_file(path, report["metrics"]["trace.sessions"])
    report["path"] = path
    return report


def world_seed(seed, rep):
    """Seed of the rep-th world of a run: disjoint across run seeds."""
    return seed * MAX_WORLDS + rep


def streamed(workload):
    return workload != "paper_wire"


def end_to_end(workload, seed, seconds, prefix, smoke, shards):
    """--trace 0: untraced runs for about `seconds`, plus the output check."""
    # The output check runs first; it also warms the host up for the
    # measured runs (the first process after a pause builds up to 2x slower).
    first = world_seed(seed, 0)
    queries = 0 if smoke else QUERIES[workload]
    if streamed(workload):
        parallel = simulate("run", workload, first, prefix, smoke, "--shards", shards)
        check = traced_run(workload, first, prefix, smoke, "check")
        expect_same("%s: traced 1-shard vs untraced %d-shard" % (workload, shards), check, parallel)
    else:
        check = simulate("run", workload, first, queries, smoke, "--transport", "inproc")
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_WORLDS or (time.monotonic() - start < seconds
                                     and len(runs) < MAX_WORLDS):
        runs.append(simulate("run", workload, world_seed(seed, len(runs)), queries, smoke,
                             "--shards", shards))
    if not streamed(workload):
        expect_same("%s: in-process twin vs event-queue" % workload, check, runs[0])
    runs[0]["worlds"] = len(runs)

    def median(key):
        return statistics.median(run[key] for run in runs)

    metrics = {
        "feed_lookups_per_s": statistics.median(r["queries"] / r["feed_s"] for r in runs),
        "build_articles_per_s": statistics.median(r["articles"] / r["build_s"] for r in runs),
        "wall_s": median("wall_s"),
        "setup_s": median("setup_s"),
        "peak_rss_mib": median("peak_rss_bytes") / (1 << 20),
    }
    return (runs[0], metrics, metric_units("end_to_end"), sum(r["queries"] for r in runs),
            sum(r["failed_lookups"] for r in runs))


def per_layer(workload, seed, seconds, prefix, smoke, shards):
    """--trace 1: the traced run plus the untraced runs its ratios need, all
    on the feed prefix (their length does not depend on `seconds`)."""
    del seconds
    seed = world_seed(seed, 0)
    if streamed(workload):
        # A materialized world of the same shape prices the transport.
        twin_queries, twin_flags, shard_flags = TWIN_QUERIES, ["--materialized"], []
    else:
        # The sequential engine has no shards: paper_wire's parallel figures
        # come from the streamed world of the same shape.
        twin_queries, twin_flags, shard_flags = prefix, [], ["--streaming"]
    # The twins run first: their feeds price the transport, and their builds
    # warm the host up for the build timings of the shard pair.
    in_process = simulate("run", workload, seed, twin_queries, smoke, *twin_flags,
                          "--transport", "inproc")
    wire = simulate("run", workload, seed, twin_queries, smoke, *twin_flags,
                    "--transport", "eventq")
    parallel = simulate("run", workload, seed, prefix, smoke, "--shards", shards, *shard_flags)
    one = simulate("run", workload, seed, prefix, smoke, "--shards", 1, *shard_flags)
    expect_same("%s: in-process twin vs event-queue" % workload, in_process, wire)
    expect_same("%s: 1-shard vs %d-shard" % (workload, shards), one, parallel)
    traced = traced_run(workload, seed, prefix, smoke, "trace")
    expect_same("%s: traced 1-shard vs untraced %d-shard" % (workload, shards), traced, parallel)
    log("[perfbench] trace written to %s (%d spans)" % (traced["path"], traced["spans"]))

    metrics = dict(traced["metrics"])
    metrics["net.frames_per_query"] = wire["wire_messages"] / wire["queries"]
    metrics["net.wire_bytes_per_query"] = wire["wire_bytes"] / wire["queries"]
    metrics["net.transport_overhead_s"] = wire["feed_s"] - in_process["feed_s"]
    metrics["sim.feed_parallel_efficiency"] = one["feed_s"] / (shards * parallel["feed_s"])
    metrics["sim.build_parallel_efficiency"] = one["build_s"] / (shards * parallel["build_s"])
    metrics["trace.overhead"] = traced["feed_s"] / one["feed_s"]
    parallel["worlds"] = 1
    runs = [in_process, wire, parallel, one]
    return (parallel, metrics, metric_units("per_layer"), sum(r["queries"] for r in runs),
            sum(r["failed_lookups"] for r in runs))


def source_digest():
    """SHA-1 over the library and benchmark sources: identifies the code when
    the checkout carries no git metadata."""
    sha = hashlib.sha1()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def stamp(report, seed, shards):
    """The provenance every result carries; warns about unoptimised builds."""
    build_info = report["stamp"]
    if not build_info["optimized"]:
        log("[perfbench] WARNING: dhtidx_perfbench was built without optimisation "
            "(build type %s); its timings are not comparable" % build_info["build_type"])
    return {"nproc": nproc(), "shards": shards, "build_type": build_info["build_type"],
            "optimized": build_info["optimized"], "compiler": build_info["compiler"],
            "git_sha": git_sha(), "source_sha1": source_digest(), "seed": seed}


def measure(workload, seed, seconds, trace, smoke):
    shards = nproc()
    # Smoke runs pass 0 queries: dhtidx_perfbench's tiny default.
    prefix = 0 if smoke else PREFIX_QUERIES[workload]
    mode = per_layer if trace else end_to_end
    report, metrics, units, attempted, failed = mode(workload, seed, seconds, prefix, smoke,
                                                     shards)
    print("[perfbench] stamp " + json.dumps(stamp(report, seed, shards), sort_keys=True))
    print("[perfbench] workload %s: %d nodes, %d articles, %d queries per world, %d worlds"
          % (workload, report["nodes"], report["articles"], report["queries"], report["worlds"]))
    for name in units:
        print("[perfbench] %-34s %16.6g %s" % (name, metrics[name], units[name]))
    # Always 0 on these failure-free workloads, so it is reported here and as
    # the result's failed/attempted rather than as a bounded metric.
    print("[perfbench] %-34s %16.6g (%d of %d lookups)"
          % ("lookup_fail_ratio", failed / attempted, failed, attempted))
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(QUERIES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds: every workload, untraced and traced")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    build()
    try:
        if args.smoke:
            attempted = failed = 0
            for workload in sorted(QUERIES):
                for trace in (0, 1):
                    result = measure(workload, args.seed, args.seconds, trace, smoke=True)
                    attempted += result["attempted"]
                    failed += result["failed"]
            result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": {}}
        else:
            result = measure(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    except CheckFailed as failure:
        log("[perfbench] OUTPUT CHECK FAILED: %s" % failure)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
