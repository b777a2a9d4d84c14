"""Seeded workload generator for the privlens benchmark.

A workload is a list of requests. Each request is one scenario file plus the
CLI command to run on it, the number of individuals n, and the exit codes the
CLI may return. Everything is derived from (workload, seed) alone, without
importing privlens, so the program under test never influences its inputs.

The structure of each list (request kinds, universe sizes, alphabets, k,
family variants, outcome counts, denominators) is fixed per workload; the
seed draws the numbers (geometric ratios, keep probabilities, matrix rows,
prior tables, dependence caps, claimed levels, targets, sampler seeds).
Keeping the structure fixed keeps the cost of a pass steady across seeds, so
run-to-run spread measures the program and the machine rather than the
draw.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("scan", "search", "exact")

BOT = "BOT"
ABC = (BOT, "a", "b")
AB = (BOT, "a")

# Allowed exit codes of a request.
EXIT_PASS = (0,)
EXIT_VIOLATION = (1,)
# Conclusive (0) or inconclusive (2), for worst-case searches over families
# that combine dependent blocks with a dependence cap below one. There a
# sampled member can beat every admissible extremal construction for some
# draws, and the engine then demotes the sup; the checker requires the exit
# code to agree with the report's conclusive flag.
EXIT_PASS_OR_INCONCLUSIVE = (0, 2)


# ---------------------------------------------------------------------------
# Small exact helpers
# ---------------------------------------------------------------------------


def histograms(alphabets):
    """Achievable histograms over the pooled alphabet, as canonical count keys
    (comma-joined counts in first-appearance order of non-BOT symbols)."""
    pooled = []
    for alpha in alphabets:
        for sym in alpha:
            if sym != BOT and sym not in pooled:
                pooled.append(sym)
    index = {s: j for j, s in enumerate(pooled)}
    seen = set()
    for seq in itertools.product(*alphabets):
        counts = [0] * len(pooled)
        for sym in seq:
            if sym != BOT:
                counts[index[sym]] += 1
        seen.add(tuple(counts))
    return [",".join(str(c) for c in h) for h in sorted(seen)]


def simplex(rng, m, per_cell=10):
    """m positive rationals summing to one, all over the denominator
    per_cell * m. A fixed denominator keeps Fraction sizes, and so the cost
    of exact arithmetic, the same from seed to seed."""
    total = per_cell * m
    cuts = sorted(rng.sample(range(1, total), m - 1))
    return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


def universe_raw(alphabets):
    if all(a == alphabets[0] for a in alphabets):
        return {"n": len(alphabets), "alphabet": list(alphabets[0])}
    return {"alphabets": [list(a) for a in alphabets]}


# ---------------------------------------------------------------------------
# Mechanisms: raw JSON plus an exact upper bound on the k-change row ratio
# ---------------------------------------------------------------------------


class Mech:
    """A generated mechanism.

    level(k) is an exact upper bound on the k-change row ratio that the
    generator can prove without running privlens: unit**k, capped by cap.
    exact is True when that bound is the level itself for every k.
    """

    def __init__(self, raw, unit, cap=None, exact=False):
        self.raw = raw
        self._unit = unit
        self._cap = cap
        self.exact = exact

    def level(self, k):
        bound = self._unit**k
        return bound if self._cap is None else min(bound, self._cap)


def geometric(rng):
    """Two-sided geometric noise on the count of "a". The k-change level is
    exactly ratio**-k (the count moves by at most k, and both boundary and
    interior outcomes realise the full factor)."""
    ratio = Fraction(rng.randint(1, 6), 8)
    raw = {"type": "geometric_counting", "target_symbol": "a",
           "ratio": str(ratio)}
    return Mech(raw, 1 / ratio, exact=True)


def randomized_response(rng):
    """Per-record keep-or-resample on {BOT, a, b}. One changed record moves
    the output law by at most the kernel ratio (keep + base) / base."""
    keep = Fraction(rng.randint(1, 5), 6)
    base = (1 - keep) / 3
    raw = {"type": "randomized_response", "keep_prob": str(keep)}
    return Mech(raw, (keep + base) / base)


def matrix(rng, alphabets, outcomes):
    """Explicit rows with positive rational entries. Any two rows differ in
    each column by at most that column's max/min, which caps every level."""
    keys = histograms(alphabets)
    rows = {key: simplex(rng, outcomes) for key in keys}
    cap = max(
        max(r[j] for r in rows.values()) / min(r[j] for r in rows.values())
        for j in range(outcomes)
    )
    raw = {
        "type": "matrix",
        "outcomes": [f"y{j}" for j in range(outcomes)],
        "rows": {key: [str(p) for p in row] for key, row in rows.items()},
    }
    return Mech(raw, cap, cap=cap)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


def block_prior(rng, alphabets, sizes):
    """Rational block-factorized prior: consecutive blocks of the given sizes,
    every cell positive."""
    blocks, tables, start = [], [], 0
    for size in sizes:
        block = list(range(start, start + size))
        cells = math.prod(len(alphabets[i]) for i in block)
        blocks.append(block)
        tables.append([str(p) for p in simplex(rng, cells)])
        start += size
    assert start == len(alphabets)
    return {"blocks": blocks, "tables": tables}


def independent_rational(rng, alphabets):
    return {"independent": [[str(p) for p in simplex(rng, len(a))]
                            for a in alphabets]}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def request(name, command, n, expect, scenario):
    scenario = dict(scenario)
    scenario["name"] = name
    return {"name": name, "command": command, "n": n, "expect": list(expect),
            "scenario": scenario}


def _scan(rng):
    """Channel certificates on mid-size universes: all of the time goes to
    sequence enumeration in universe and mechanism."""
    out = []
    outcome_counts = itertools.cycle((3, 4, 5, 6))
    for mname in ("geo", "rr", "matrix"):
        jobs = [("certify", 1, n) for n in (6, 7, 8)]
        jobs += [("certify", 2, n) for n in (6, 7)]
        jobs += [("tightness", 1, n) for n in (7, 8)]
        for command, k, n in jobs:
            alphabets = [ABC] * n
            if mname == "geo":
                mech = geometric(rng)
            elif mname == "rr":
                mech = randomized_response(rng)
            else:
                mech = matrix(rng, alphabets, next(outcome_counts))
            scn = {"universe": universe_raw(alphabets),
                   "mechanisms": {"m": mech.raw}}
            name = f"scan-{command}-{mname}-k{k}-n{n}"
            if command == "tightness":
                scn["bound"] = {"kind": "tightness", "mechanism": "m", "k": k}
                out.append(request(name, "bound", n, EXIT_PASS, scn))
                continue
            level = mech.level(k)
            expect = EXIT_PASS
            if mech.exact and rng.random() < 0.5:
                # Claim just below the exact level: a refutation.
                level = level * Fraction(99, 100)
                expect = EXIT_VIOLATION
            scn["certify"] = {"kind": "k_change", "mechanism": "m", "k": k,
                              "exp_epsilon": str(level)}
            out.append(request(name, "certify", n, expect, scn))
    return out


def _exp_delta(rng, lo=0):
    """A rational dependence cap in [lo, 1), never zero, in eighths."""
    return Fraction(rng.randint(max(1, math.ceil(lo * 8)), 7), 8)


# The fixed request slots of one search round: (kind, mechanism, matrix
# outcomes, last individual restricted to {BOT, a}, k, exp_delta drawn).
SEARCH_SLOTS = (
    ("worstcase", "geo", 0, False, 1, False),
    ("worstcase", "matrix", 4, True, 1, True),
    ("worstcase", "geo", 0, True, 2, False),
    ("worstcase", "matrix", 5, False, 2, True),
    ("interpolated", "geo", 0, False, 1, True),
    ("interpolated", "matrix", 3, True, 1, True),
    ("group", "geo", 0, False, 1, False),
    ("group", "matrix", 6, True, 2, False),
)


def _search(rng):
    """Worst-case family searches on small universes: hundreds of float
    sampled priors and near-point-mass extremal priors per request. Two
    rounds over the same slots; the second swaps the mechanisms, so every
    family variant meets both."""
    out = []
    for rep in range(2):
        for n in (3, 4):
            for j, slot in enumerate(SEARCH_SLOTS):
                out.append(_search_request(rng, rep, n, j, *slot))
        # No block limit with a dependence cap: the shared/private-complement
        # construction, admissible only for exp_delta >= 1/2.
        mech = geometric(rng)
        scn = {"universe": universe_raw([ABC] * 3),
               "mechanisms": {"m": mech.raw},
               "bound": {"kind": "worstcase", "mechanism": "m",
                         "family": {"exp_delta": str(
                             _exp_delta(rng, Fraction(1, 2)))},
                         "target": 0},
               "seed": rng.randrange(1 << 30), "samples": 200}
        out.append(request(f"search-worstcase-unlimited-geo-n3-r{rep}",
                           "bound", 3, EXIT_PASS_OR_INCONCLUSIVE, scn))
    # One more short request makes the list odd, so the median falls inside
    # a cluster of similar requests instead of on the step between two.
    out.append(_search_request(rng, 2, 3, 7, "group", "geo", 0, True, 2, False))
    return out


def _search_request(rng, rep, n, j, kind, mname, outcomes, mixed, k, delta):
    if rep == 1:
        mname, outcomes = ("matrix", 3 + (j + n) % 4) if mname == "geo" else (
            "geo", 0)
    alphabets = [ABC] * (n - 1) + [AB if mixed else ABC]
    mech = geometric(rng) if mname == "geo" else matrix(rng, alphabets,
                                                         outcomes)
    scn = {"universe": universe_raw(alphabets), "mechanisms": {"m": mech.raw},
           "seed": rng.randrange(1 << 30), "samples": 200}
    name = f"search-{kind}-{mname}-k{k}-n{n}-{j}-r{rep}"
    if kind == "worstcase":
        fam = {"k": k}
        if delta:
            fam["exp_delta"] = str(_exp_delta(rng))
        scn["bound"] = {"kind": "worstcase", "mechanism": "m", "family": fam,
                        "target": 0}
        expect = EXIT_PASS_OR_INCONCLUSIVE if k > 1 and delta else EXIT_PASS
        return request(name, "bound", n, expect, scn)
    if kind == "interpolated":
        # The premise is the exact one-change level (geometric) or a proven
        # cap (matrix); with k = 1 the bound is that level.
        scn["bound"] = {"kind": "interpolated", "mechanism": "m", "k": k,
                        "exp_eps_step": str(mech.level(1)),
                        "exp_delta": str(_exp_delta(rng)), "target": 0}
        return request(name, "bound", n, EXIT_PASS, scn)
    scn["certify"] = {"kind": "group", "mechanism": "m", "k": k,
                      "group": [0, 1], "exp_epsilon": str(mech.level(k))}
    return request(name, "certify", n, EXIT_PASS, scn)


def _exact(rng):
    """Rational-path leakage and composition: few, large Fraction tables."""
    out = []
    block_sizes = {6: [(2, 2, 2), (3, 3), (1, 2, 3)],
                   7: [(2, 2, 3), (3, 4), (1, 3, 3)]}
    for n in (6, 7):
        for j, mname in enumerate(("geo", "rr", "matrix")):
            alphabets = [ABC] * n
            mech = (geometric(rng) if mname == "geo" else
                    randomized_response(rng) if mname == "rr" else
                    matrix(rng, alphabets, 3 + j))
            sizes = list(block_sizes[n][j])
            rng.shuffle(sizes)
            # One single target and one pair target, both seeded.
            i, j2, k2 = rng.sample(range(n), 3)
            scn = {"universe": universe_raw(alphabets),
                   "priors": {"p": block_prior(rng, alphabets, sizes)},
                   "mechanisms": {"m": mech.raw},
                   "leakage": {"prior": "p", "mechanism": "m",
                               "targets": [i, sorted([j2, k2])]}}
            out.append(request(f"exact-leakage-{mname}-n{n}", "leakage", n,
                               EXIT_PASS, scn))
    n = 6
    for mname in ("geo", "rr", "matrix"):
        alphabets = [ABC] * n
        mech = (geometric(rng) if mname == "geo" else
                randomized_response(rng) if mname == "rr" else
                matrix(rng, alphabets, 4))
        sizes = [2, 2, 2]
        # Levels in nats, generous enough that every individual passes: no
        # posterior-to-prior jump exceeds the channel's all-pairs row ratio,
        # which is its n-change level.
        cap = float(mech.level(n))
        eps = [round(math.log(cap) + 0.25 + rng.random(), 6) for _ in range(n)]
        scn = {"universe": universe_raw(alphabets),
               "priors": {"p": block_prior(rng, alphabets, sizes)},
               "mechanisms": {"m": mech.raw},
               "certify": {"kind": "personalized", "mechanism": "m",
                           "prior": "p", "epsilons": eps}}
        out.append(request(f"exact-personalized-{mname}-n{n}", "certify", n,
                           EXIT_PASS, scn))
    for n, second in ((3, "matrix"), (3, "rr"), (4, "matrix")):
        alphabets = [ABC] * n
        m1 = geometric(rng)
        m2 = (matrix(rng, alphabets, 3) if second == "matrix" else
              randomized_response(rng))
        scn = {"universe": universe_raw(alphabets),
               "priors": {"p1": block_prior(rng, alphabets, [2, n - 2]),
                          "p2": independent_rational(rng, alphabets)},
               "mechanisms": {"m1": m1.raw, "m2": m2.raw},
               "compose": {"kind": "epochs", "verify": True,
                           "target": rng.randrange(n),
                           "epochs": [{"prior": "p1", "mechanism": "m1"},
                                      {"prior": "p2", "mechanism": "m2"}]}}
        out.append(request(f"exact-epochs-{second}-n{n}", "compose", n,
                           EXIT_PASS, scn))
    n = 4
    alphabets = [ABC] * n
    m1, m2 = geometric(rng), randomized_response(rng)
    scn = {"universe": universe_raw(alphabets),
           "priors": {"p": block_prior(rng, alphabets, [2, 2])},
           "mechanisms": {"m1": m1.raw, "m2": m2.raw},
           "compose": {"kind": "equal_epochs", "mechanisms": ["m1", "m2"],
                       "prior": "p", "target": rng.randrange(n)}}
    out.append(request("exact-equal-epochs-n4", "compose", n, EXIT_PASS, scn))
    for k, second in ((1, "rr"), (2, "matrix")):
        m1 = geometric(rng)
        m2 = (matrix(rng, alphabets, 4) if second == "matrix" else
              randomized_response(rng))
        scn = {"universe": universe_raw(alphabets),
               "mechanisms": {"m1": m1.raw, "m2": m2.raw},
               "compose": {"kind": "product", "mechanisms": ["m1", "m2"],
                           "k": k, "exp_epsilons": [str(m1.level(k)),
                                                    str(m2.level(k))]}}
        out.append(request(f"exact-product-{second}-k{k}-n4", "compose", n,
                           EXIT_PASS, scn))
    return out


_BUILDERS = {"scan": _scan, "search": _search, "exact": _exact}


def generate(workload: str, seed: int):
    """The request list of a workload, a pure function of (workload, seed)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"privlens-bench:{workload}:{seed}")
    reqs = _BUILDERS[workload](rng)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


def write(requests, directory):
    """Write one scenario file per request; returns the paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for req in requests:
        path = os.path.join(directory, f"{req['id']:03d}-{req['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(req["scenario"], fh, sort_keys=True)
        paths.append(path)
    return paths
