#!/usr/bin/env python3
"""privlens benchmark: closed-loop CLI requests on a seeded workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 40 --trace 0

One client, no threads: each request is an in-process call of
``privlens.cli.run([command, scenario, "--format", "json"])`` on a scenario
file written before timing starts, and the next request starts when the
previous one returns. The timed window runs whole passes over the request
list, as many as fit in --seconds but at least enough to put ten samples
beyond the tail percentile, so every request of the list is sampled equally
often. Every request is checked (see checker.py); failed requests count in
``failed`` and are never timed as successes. Every timing is scaled to a
reference machine speed by a calibration kernel timed around it.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the window
untraced and half traced (see tracer.py) and prints per-module metrics, each
a mean per traced request, plus the tracing overhead. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.

With --seed 0 (the default) every report is also compared with the committed
reference in perfbench/reference/. Regenerate it with --write-reference.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import scenarios  # noqa: E402
import tracer as tracing  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# The tail percentile: the highest of p75/p90/p95/p99 that leaves at least
# TAIL_MIN_BEYOND samples beyond it at every workload's usual sample count
# (two to five passes). The timed window runs enough passes to guarantee
# that many, so the percentile does not move with machine speed or with a
# faster program.
TAIL_PERCENTILE = 75
TAIL_MIN_BEYOND = 10
# Every timing is scaled to a reference machine speed: a request's wall
# time is multiplied by REFERENCE_CALIBRATION_S over the mean time of the
# calibration kernel runs just before and just after it (see README).
REFERENCE_CALIBRATION_S = 0.03

# Which modules each workload exists to stress; the traced run checks that
# their combined self time is the largest share.
PURPOSE = {"scan": ("universe", "mechanism"), "search": ("prior", "leakage"),
           "exact": ("leakage", "compose")}

END_TO_END_UNITS = {"latency_s.p50": "s", "latency_s.tail": "s",
                    "throughput_rps": "req/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_privlens():
    """Import privlens.cli fresh from this checkout's src/ and return it."""
    if not os.path.isfile(os.path.join(SRC, "privlens", "cli.py")):
        raise BenchError(f"no privlens sources under {SRC}")
    for name in [m for m in sys.modules
                 if m == "privlens" or m.startswith("privlens.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    cli = importlib.import_module("privlens.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"privlens was imported from {cli.__file__}")
    return cli


def calibrate():
    """Seconds for a fixed pure-Python kernel of about 30 ms that does the
    kinds of work privlens does: an integer loop, Fraction sums in a small
    dict, and a larger tuple-keyed dict of floats that is filled, summed
    and sorted."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    table = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + Fraction(i % 11 + 1, i % 7 + 2)
    floats = {(i % 251, i // 251, i % 7): i * 0.5 for i in range(10_000)}
    sum(v * 1.0000001 for v in floats.values())
    sorted(floats, key=lambda k: (k[2], k[0]))
    return time.perf_counter() - start


def scaled(seconds, calibration_s):
    """Wall seconds scaled to the reference machine speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def load_reference(workload):
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.isfile(path):
        raise BenchError(f"missing reference {path}; run --write-reference")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


class Client:
    """Runs and checks requests, counting attempts and failures."""

    def __init__(self, cli, reqs, paths, reference):
        self.cli = cli
        self.jobs = list(zip(reqs, paths))
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, req, path):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.run([req["command"], path, "--format", "json"],
                                stdout=out, stderr=err)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crash fails the request, not the run
            code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), time.perf_counter() - start

    def check(self, req, code, stdout):
        ref = None if self.reference is None else self.reference.get(req["name"])
        if self.reference is not None and ref is None:
            problems = [f"no reference report for {req['name']}"]
        else:
            problems, _ = checker.check(req, code, stdout, ref)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{req['name']}: {'; '.join(problems)}")
        return not problems

    def window(self, seconds, min_passes=1, trace=None):
        """Whole passes over the request list: at least min_passes, and no
        pass that the longest one so far says would end past `seconds`.
        The calibration kernel runs between requests, and each request is
        scaled by the mean of the kernel times just before and just after
        it. Returns (scaled latencies of passed requests, scaled seconds of
        all requests, passes)."""
        latencies = []
        busy = 0.0
        passes = 0
        longest = 0.0
        start = time.perf_counter()
        before = calibrate()
        while (passes < min_passes
               or time.perf_counter() - start + longest <= seconds):
            pass_start = time.perf_counter()
            for req, path in self.jobs:
                if trace is None:
                    code, out, dt = self.call(req, path)
                else:
                    code, out, dt = trace.request(
                        self.attempted, req["n"], lambda: self.call(req, path))
                after = calibrate()
                dt = scaled(dt, (before + after) / 2)
                before = after
                busy += dt
                if self.check(req, code, out):
                    latencies.append(dt)
            passes += 1
            longest = max(longest, time.perf_counter() - pass_start)
        return latencies, busy, passes


def setup(workload, seed, workdir, reference):
    """Import privlens, generate and write the scenarios, run the warm-up
    request (the first of the list). Returns (scaled seconds, client)."""
    before = calibrate()
    start = time.perf_counter()
    cli = import_privlens()
    reqs = scenarios.generate(workload, seed)
    paths = scenarios.write(reqs, workdir)
    client = Client(cli, reqs, paths, reference)
    req, path = client.jobs[0]
    code, out, _ = client.call(req, path)
    elapsed = time.perf_counter() - start
    client.check(req, code, out)
    return scaled(elapsed, (before + calibrate()) / 2), client


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(latencies, pct):
    """Harrell-Davis estimate of the pct-th percentile: the mean of the
    order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density, each
    weight integrated over its 1/n slice by Simpson's rule. A single order
    statistic jumps whenever noise reorders the samples of two requests of
    similar cost that meet at the percentile's rank; this estimate moves
    smoothly and averages several samples around that rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    steps = 8
    simpson = [1] + [4 if j % 2 else 2 for j in range(1, steps)] + [1]
    weights = [sum(c * density((i + j / steps) / n)
                   for j, c in enumerate(simpson)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def beyond(samples, pct):
    """How many of `samples` lie past the nearest rank of pct."""
    return samples - max(1, math.ceil(pct / 100 * samples))


def min_passes(requests_per_pass, pct):
    """Fewest whole passes that leave TAIL_MIN_BEYOND samples beyond pct."""
    passes = 1
    while beyond(requests_per_pass * passes, pct) < TAIL_MIN_BEYOND:
        passes += 1
    return passes


def end_to_end(latencies, busy_s, setup_s, pct):
    value = percentile(latencies, pct)
    metrics = {
        "latency_s.p50": percentile(latencies, 50),
        "latency_s.tail": value,
        "throughput_rps": len(latencies) / busy_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"latency_s.tail": {
        "percentile": pct, "samples": len(latencies),
        "beyond": sum(1 for x in latencies if x > value)}}
    return metrics, detail


def per_layer(trace, workload, untraced_p50, traced_p50):
    """Per-module metrics from a traced window: self seconds and counts are
    means per traced request; shares are of the summed request wall time."""
    self_s, wall, requests = trace.summary()
    requests = max(requests, 1)
    metrics = {}
    for name in sorted({name for name, _, _ in tracing.SPANS} | {tracing.ROOT}):
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / requests, "s")
    for name in tracing.COUNTS:
        metrics[name] = (trace.counts.get(name, 0) / requests, "count")
    ext = trace.counts.get("audit.sup.extremal", 0)
    tried = ext + trace.counts.get("audit.sup.filtered_candidates", 0)
    metrics["audit.sup.extremal_admitted_ratio"] = (
        ext / tried if tried else 0.0, "ratio")
    shares = {m: 0.0 for m in tracing.MODULES}
    for name, s in self_s.items():
        shares[name.split(".", 1)[0]] += s
    for m in tracing.MODULES:
        shares[m] = shares[m] / wall if wall > 0 else 0.0
        metrics[f"share.{m}"] = (shares[m], "ratio")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
    focus = PURPOSE[workload]
    focus_share = sum(shares[m] for m in focus)
    confirmed = all(focus_share > shares[m] for m in tracing.MODULES
                    if m not in focus)
    detail = {
        "purpose": {"modules": list(focus), "share": focus_share,
                    "largest": confirmed},
        "trace_overhead_p50_s": traced_p50 - untraced_p50,
        "traced_requests": requests,
        "spans": len(trace.spans),
        "missing_targets": trace.missing,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args):
    os.environ.pop("PRIVLENS_THREADS", None)
    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    calibration_s = calibrate()
    try:
        setups, warmups = [], []
        for i in range(SETUP_REPEATS):
            elapsed, client = setup(args.workload, args.seed,
                                    os.path.join(workdir, f"setup{i}"), reference)
            setups.append(elapsed)
            warmups.append(client)
        setup_s = statistics.median(setups)
        for earlier in warmups[:-1]:
            client.attempted += earlier.attempted
            client.failed += earlier.failed
            client.problems += earlier.problems

        if args.trace:
            half = args.seconds / 2
            plain, _, _ = client.window(half)
            trace = tracing.Tracer()
            trace.install()
            try:
                traced, busy_s, passes = client.window(half, trace=trace)
            finally:
                trace.uninstall()
            if not plain or not traced:
                raise BenchError("no request passed; nothing to measure")
            metrics, detail = per_layer(trace, args.workload,
                                        percentile(plain, 50),
                                        percentile(traced, 50))
            trace.write(os.path.join(scratch, f"spans-{args.workload}.jsonl"))
        else:
            pct = TAIL_PERCENTILE
            latencies, busy_s, passes = client.window(
                args.seconds, min_passes(len(client.jobs), pct))
            if not latencies:
                raise BenchError("no request passed; nothing to measure")
            values, detail = end_to_end(latencies, busy_s, setup_s, pct)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = client.failed / client.attempted
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "requests_per_pass": len(client.jobs),
        "busy_s": busy_s, "setup_runs_s": setups,
        "failed_frac": failed_frac, "problems": client.problems,
        "reference_checked": reference is not None,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "calibration_s": calibration_s},
    })
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} ratio "
          f"({client.failed}/{client.attempted})")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def write_reference(workload):
    """Run every request of the default seed once and store its report."""
    cli = import_privlens()
    reqs = scenarios.generate(workload, DEFAULT_SEED)
    workdir = os.path.join(ROOT, ".perfbench", f"reference-{os.getpid()}")
    try:
        client = Client(cli, reqs, scenarios.write(reqs, workdir), None)
        reports = {}
        for req, path in client.jobs:
            code, out, _ = client.call(req, path)
            problems, report = checker.check(req, code, out)
            if problems:
                raise BenchError(f"{req['name']}: {'; '.join(problems)}")
            reports[req["name"]] = report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    with open(os.path.join(HERE, "reference", f"{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reports)} reference reports for {workload}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's reports and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference(args.workload)
        else:
            run(args)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
