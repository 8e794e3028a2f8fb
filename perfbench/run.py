#!/usr/bin/env python3
"""The repository benchmark. Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

It builds perfbench/ (and with it the engine) in .bench_build, runs one
workload for --seconds seconds and prints, as the last line of standard
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload twice
for half the time each, untraced then traced, and reports the per-layer
metrics, obs.trace_overhead included; the traced half writes its spans to
.bench_build/traces/. README.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("paper_suite", "serve_rw", "dist_q17", "dist_q17_checkpoint",
             "dist_q17_recover")
BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns False on
    failure, e.g. outside a full checkout of the repository."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("run.py: no engine sources here (run from the repository root)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed: " + " ".join(cmd))
            return False
    return True


def measure(workload, seed, seconds, trace_out=None):
    """Runs the binary once; returns its JSON report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=RUN_TIMEOUT_S, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def completed(rep):
    return rep["attempted"] - rep["failed"]


def qps(rep):
    return completed(rep) / rep["wall_s"]


def end_to_end(rep):
    """The end-to-end metrics of one untraced report, name -> (value, unit)."""
    lat = [s[1] for s in rep["samples"]]
    cells = {}
    for cell, ms, _ in rep["samples"]:
        cells.setdefault(rep["cells"][cell], []).append(ms)
    n = completed(rep)
    return {
        "setup_s": (statistics.median(rep["setup_s"]), "s"),
        "qps": (qps(rep), "1/s"),
        "latency_p50_ms": (stats.percentile(lat, 50), "ms"),
        "latency_p90_ms": (stats.percentile(lat, 90), "ms"),
        "latency_geomean_ms": (stats.geomean_of_cell_medians(cells), "ms"),
        "cpu_ms_per_query": (stats.ratio(rep["cpu_s"] * 1e3, n), "ms"),
        "state_mb_mean": (
            statistics.fmean(s[2] for s in rep["samples"]) / 2**20, "MB"),
        "success_rate": (stats.ratio(n, rep["attempted"]), "ratio"),
    }


def per_layer(rep, untraced_qps):
    """The per-layer metrics of one traced report, name -> (value, unit).
    Counters are summed over the run's completed queries; '/query' metrics
    divide by their number. A layer a workload does not load reads 0."""
    c = rep["counters"]
    g = lambda k: c.get(k, 0.0)  # noqa: E731
    n = completed(rep)
    q = lambda k: stats.ratio(g(k), n)  # noqa: E731
    lookups = g("cache_hits") + g("cache_misses")
    return {
        "storage.generate_s": (statistics.median(rep["generate_s"]), "s"),
        "workload.plan_build_ms": (q("plan_build_ms"), "ms"),
        "sip.install_ms": (stats.ratio(g("install_ms"), g("aip_queries")),
                           "ms"),
        "sip.rows_pruned": (q("rows_pruned"), "count"),
        "sip.aip_probe_rows": (q("aip_probe_rows"), "count"),
        "sip.prune_ratio": (stats.ratio(g("port_pruned"),
                                        g("aip_probe_rows")), "ratio"),
        "sip.filters_attached": (q("filters_attached"), "count"),
        "sip.set_bytes": (q("set_bytes"), "B"),
        "sip.cache_lookups": (lookups, "count"),
        "sip.cache_hit_ratio": (stats.ratio(g("cache_hits"), lookups),
                                "ratio"),
        "sip.cache_invalidations": (g("cache_invalidations"), "count"),
        "sip.summary_entries": (q("summary_entries"), "count"),
        "exec.run_ms": (q("run_ms"), "ms"),
        "exec.scan_self_ms": (q("self_ms.scan"), "ms"),
        "exec.filter_self_ms": (q("self_ms.filter"), "ms"),
        "exec.join_self_ms": (q("self_ms.join"), "ms"),
        "exec.agg_self_ms": (q("self_ms.agg"), "ms"),
        "exec.rows_scanned": (q("rows_scanned"), "count"),
        "exec.stall_ms": (q("stall_ms"), "ms"),
        "serve.submit_us": (q("submit_us"), "us"),
        "serve.queue_wait_ms": (q("queue_wait_ms"), "ms"),
        "serve.write_ms": (stats.ratio(g("write_ms"), g("writes")), "ms"),
        "dist.build_ms": (q("build_ms"), "ms"),
        "dist.run_ms": (q("dist_run_ms"), "ms"),
        "dist.frames_sent": (q("frames_sent"), "count"),
        "dist.bytes_per_frame": (stats.ratio(g("payload_bytes"),
                                             g("frames_sent")), "B"),
        "dist.xsend_self_ms": (q("self_ms.xsend"), "ms"),
        "dist.xrecv_self_ms": (q("self_ms.xrecv"), "ms"),
        "dist.stall_ms": (q("dist_stall_ms"), "ms"),
        "dist.rows_source_pruned": (q("rows_source_pruned"), "count"),
        "net.bytes_shipped": (q("bytes_shipped"), "B"),
        "net.link_ms": (q("link_ms"), "ms"),
        "dist.checkpoints": (q("checkpoints"), "count"),
        "dist.checkpoint_bytes": (q("checkpoint_bytes"), "B"),
        "dist.state_recoveries": (q("state_recoveries"), "count"),
        "dist.restore_ms": (q("restore_ms"), "ms"),
        "obs.trace_overhead": (qps(rep) / untraced_qps - 1, "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not build():
        return 1

    if args.trace:
        untraced = measure(args.workload, args.seed, args.seconds / 2)
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir,
                                 f"{args.workload}-seed{args.seed}.json")
        traced = measure(args.workload, args.seed, args.seconds / 2,
                         trace_out)
        reports = [untraced, traced]
        metrics = per_layer(traced, qps(untraced))
    else:
        rep = measure(args.workload, args.seed, args.seconds)
        reports = [rep]
        metrics = end_to_end(rep)
        log(f"{args.workload} seed={args.seed}: {completed(rep)} of "
            f"{rep['attempted']} queries answered correctly "
            f"(latency samples: {len(rep['samples'])}, error_rate "
            f"{1 - metrics['success_rate'][0]:.4g})")

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
