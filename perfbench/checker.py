"""Correctness checks for one CLI request of the privlens benchmark.

A request passes when the exit code is one the generator derived from the
seed, stdout parses as a JSON report for the right command, the report keeps
the invariants the engine promises, and, when a reference report is given,
every field matches it: strings (rationals such as "9/4", labels, notes)
exactly, floats within 1e-9 relative so that a float-path rewrite is not
flagged for last-bit noise.
"""

from __future__ import annotations

import json
import math

ORDER_TOL = 1e-9
FLOAT_RTOL = 1e-9

QUANTITY_ORDER = ("inferential_eps", "max_mi", "max_rel_entropy", "mi")


def _nats(value):
    if value == "inf":
        return math.inf
    return float(value)


def check_invariants(req, code, report):
    """Problems with a parsed report and its exit code, judged without a
    reference."""
    problems = []
    if report.get("command") != req["command"]:
        problems.append(f"report is for command {report.get('command')!r}")
    results = report.get("results")
    verdicts = report.get("verdicts")
    if not isinstance(results, dict) or not isinstance(verdicts, list):
        return problems + ["report lacks results or verdicts"]
    scenario = req["scenario"]

    sup = results.get("sup")
    if isinstance(sup, dict) and not verdicts:
        want = 0 if sup.get("conclusive") is True else 2
        if code != want:
            problems.append(f"exit code {code} disagrees with conclusive="
                            f"{sup.get('conclusive')!r}")

    if "tightness" in results and not results["tightness"].get("attained"):
        problems.append("tightness.attained is not true")

    for target, quantities in results.get("per_target", {}).items():
        values = [_nats(quantities[q]["nats"]) for q in QUANTITY_ORDER]
        for (hi_name, hi), (lo_name, lo) in zip(
            zip(QUANTITY_ORDER, values), zip(QUANTITY_ORDER[1:], values[1:])
        ):
            if hi < lo - ORDER_TOL:
                problems.append(
                    f"target {target}: {hi_name} {hi!r} < {lo_name} {lo!r}")

    if req["command"] == "compose":
        kind = scenario["compose"]["kind"]
        if kind == "epochs" and results.get("additivity_agrees") is not True:
            problems.append("additivity_agrees is not true")
        if kind == "equal_epochs" and results.get("agree") is not True:
            problems.append("agree is not true")

    must_hold = None
    if req["command"] == "bound" and scenario["bound"]["kind"] == "interpolated":
        must_hold = "interpolated"
    if req["command"] == "certify" and scenario["certify"]["kind"] == "group":
        must_hold = "group"
    if must_hold:
        if not verdicts:
            problems.append(f"{must_hold} request returned no verdict")
        for v in verdicts:
            if v.get("satisfied") is not True:
                problems.append(f"{must_hold} verdict is not satisfied")
    return problems


def diff(ref, got, path="$"):
    """First difference between a reference value and a candidate, or None."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return None if ref is got else f"{path}: {got!r} != {ref!r}"
    if isinstance(ref, float) or (isinstance(ref, int) and isinstance(got, float)):
        if not isinstance(got, (int, float)):
            return f"{path}: {got!r} is not a number like {ref!r}"
        if math.isclose(got, ref, rel_tol=FLOAT_RTOL, abs_tol=0.0) or got == ref:
            return None
        return f"{path}: {got!r} differs from {ref!r} beyond {FLOAT_RTOL}"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{path}: keys differ"
        for key in sorted(ref):
            d = diff(ref[key], got[key], f"{path}.{key}")
            if d:
                return d
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: lists differ in length"
        for i, (r, g) in enumerate(zip(ref, got)):
            d = diff(r, g, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if ref == got and type(ref) is type(got) else (
        f"{path}: {got!r} != {ref!r}")


def check(req, code, stdout, reference=None):
    """All problems with one request's outcome; an empty list means it
    passed. Returns (problems, parsed report or None)."""
    problems = []
    if code not in req["expect"]:
        problems.append(f"exit code {code}, expected one of {req['expect']}")
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"], None
    if not isinstance(report, dict):
        return problems + ["report is not a JSON object"], None
    problems += check_invariants(req, code, report)
    if reference is not None:
        d = diff(reference, report)
        if d:
            problems.append(f"reference mismatch at {d}")
    return problems, report
