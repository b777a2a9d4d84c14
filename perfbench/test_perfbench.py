"""Self-tests for the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import time
from fractions import Fraction

import pytest

import checker
import run
import scenarios
import tracer as tracing


def _reference(workload):
    return run.load_reference(workload)


def _request(workload, name):
    return next(r for r in scenarios.generate(workload, run.DEFAULT_SEED)
                if r["name"] == name)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    first = scenarios.generate(workload, 7)
    assert first == scenarios.generate(workload, 7)
    assert first != scenarios.generate(workload, 8)
    a = scenarios.write(first, tmp_path / "a")
    b = scenarios.write(scenarios.generate(workload, 7), tmp_path / "b")
    for pa, pb in zip(a, b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_structure_does_not_depend_on_the_seed(workload):
    def shape(reqs):
        return [(r["command"], r["n"], r["name"]) for r in reqs]

    assert shape(scenarios.generate(workload, 1)) == shape(
        scenarios.generate(workload, 2))


def _certify_case():
    req = _request("scan", "scan-certify-rr-k1-n6")
    ref = _reference("scan")[req["name"]]
    return req, ref


def test_checker_accepts_the_reference_report():
    req, ref = _certify_case()
    problems, _ = checker.check(req, req["expect"][0], json.dumps(ref), ref)
    assert problems == []


def test_checker_flags_one_changed_ratio_string():
    req, ref = _certify_case()
    bad = copy.deepcopy(ref)
    measured = bad["verdicts"][0]["measured"]
    measured["ratio"] = str(Fraction(measured["ratio"]) + Fraction(1, 10**6))
    problems, _ = checker.check(req, req["expect"][0], json.dumps(bad), ref)
    assert any("reference mismatch" in p for p in problems)


def test_checker_flags_a_flipped_satisfied():
    req = next(r for r in scenarios.generate("search", run.DEFAULT_SEED)
               if r["scenario"].get("certify", {}).get("kind") == "group")
    ref = _reference("search")[req["name"]]
    bad = copy.deepcopy(ref)
    bad["verdicts"][0]["satisfied"] = False
    # Without a reference the invariant alone catches it; with one, both do.
    problems, _ = checker.check(req, req["expect"][0], json.dumps(bad))
    assert any("not satisfied" in p for p in problems)
    problems, _ = checker.check(req, req["expect"][0], json.dumps(bad), ref)
    assert any("reference mismatch" in p for p in problems)


def test_checker_tolerates_float_noise_but_not_more():
    assert checker.diff({"x": 0.5}, {"x": 0.5 * (1 + 1e-12)}) is None
    assert checker.diff({"x": 0.5}, {"x": 0.5 * (1 + 1e-6)}) is not None
    assert checker.diff({"x": "1/3"}, {"x": "2/6"}) is not None


def test_checker_flags_a_wrong_exit_code():
    req, ref = _certify_case()
    problems, _ = checker.check(req, 3, json.dumps(ref), ref)
    assert any("exit code" in p for p in problems)


def test_a_crash_fails_the_request_and_not_the_run():
    class Crashing:
        @staticmethod
        def run(argv, stdout=None, stderr=None):
            raise RuntimeError("boom")

    req, ref = _certify_case()
    client = run.Client(Crashing, [req], ["unused.json"], {req["name"]: ref})
    code, out, _ = client.call(req, "unused.json")
    assert not client.check(req, code, out)
    assert (client.attempted, client.failed) == (1, 1)
    assert "RuntimeError: boom" in client.problems[0]


def test_self_times_are_nonnegative_and_within_request_wall(tmp_path):
    cli = run.import_privlens()
    names = ("exact-epochs-matrix-n3", "exact-product-matrix-k2-n4")
    reqs = [r for r in scenarios.generate("exact", run.DEFAULT_SEED)
            if r["name"] in names]
    reqs.append(scenarios.generate("search", run.DEFAULT_SEED)[0])
    client = run.Client(cli, reqs, scenarios.write(reqs, tmp_path), None)
    original = cli.Scenario.__init__
    trace = tracing.Tracer()
    trace.install()
    try:
        walls = {}
        for rid, (req, path) in enumerate(client.jobs):
            start = time.perf_counter()
            code, out, _ = trace.request(rid, req["n"],
                                         lambda: client.call(req, path))
            walls[rid] = time.perf_counter() - start
            assert client.check(req, code, out), client.problems
    finally:
        trace.uninstall()
    assert cli.Scenario.__init__ is original
    assert trace.missing == []
    per_request = {rid: 0.0 for rid in walls}
    for span, self_s in zip(trace.spans, trace.self_times()):
        assert self_s >= -1e-9, trace.names[span[0]]
        per_request[span[4]] += self_s
    for rid, total in per_request.items():
        assert 0 < total <= walls[rid] + 1e-9
    self_by_name, wall, requests = trace.summary()
    assert requests == len(reqs)
    assert self_by_name["leakage.JointTables"] > 0
    assert trace.counts["prior.sample_prior.calls"] > 0


def test_spans_are_written_with_request_and_n(tmp_path):
    trace = tracing.Tracer()
    trace.request(4, 6, lambda: None)
    path = os.path.join(tmp_path, "spans.jsonl")
    trace.write(path)
    with open(path, encoding="utf-8") as fh:
        (line,) = [json.loads(x) for x in fh]
    assert line["name"] == tracing.ROOT
    assert (line["request"], line["n"], line["parent"]) == (4, 6, -1)
    assert line["end"] >= line["start"]


def test_percentiles_are_harrell_davis_with_ten_samples_beyond():
    assert run.percentile([0.3] * 9, 75) == pytest.approx(0.3)
    lat = list(range(1, 102))
    assert run.percentile(lat, 50) == pytest.approx(51)
    assert 75 < run.percentile(lat, 75) < 77
    assert run.beyond(100, 90) == 10
    assert run.beyond(60, 75) == 15
    pct = run.TAIL_PERCENTILE
    for workload in scenarios.WORKLOADS:
        per_pass = len(scenarios.generate(workload, 0))
        passes = run.min_passes(per_pass, pct)
        assert run.beyond(per_pass * passes, pct) >= 10
        assert run.beyond(per_pass * (passes - 1), pct) < 10


def test_timings_scale_with_the_calibration_kernel():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.scaled(0.3, ref) == pytest.approx(0.3)
    assert run.scaled(0.3, 2 * ref) == pytest.approx(0.15)
    assert run.calibrate() > 0
