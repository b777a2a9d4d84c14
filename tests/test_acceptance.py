"""Acceptance gate.

Each test is one pass or fail line under pytest -v. The suite exercises the
headline guarantees end to end: the one-change sup equals the differential
privacy level, the correlated-pair closed form reproduces exactly, extremal
priors attain the scan, the dependence-interpolated bound never breaks, the
leakage quantities are ordered, composition and epochs add up, group chains
hold, postprocessing never helps an adversary, and reports are byte-stable
from run to run and from the library entry point to ``python -m privlens``.
"""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from gen import random_channel, random_prior, random_universe
from privlens.audit import bound_pdelta, group_certify, tightness_pk, worstcase_sup
from privlens.cli import run
from privlens.compose import (
    EpochModel,
    certify_composition,
    direct_epoch_max_mi,
    epoch_leakage,
    product_channel,
)
from privlens.leakage import (
    JointTables,
    inferential_eps,
    max_mi,
    max_rel_entropy,
    mi,
)
from privlens.mechanism import (
    dp_epsilon,
    geometric_counting_channel,
    lipschitz_ratio,
    postprocess,
    randomized_response_channel,
)
from privlens.prior import (
    FamilyParams,
    independent_prior,
    prior_from_flat,
    sample_prior,
)
from privlens.universe import BOT, uniform_universe

LOG_TOL = 1e-6
REL_TOL = 1e-9
MI_TOL = 1e-12

HALF = Fraction(1, 2)


def geo_pair():
    u = uniform_universe(2, (BOT, "a"))
    return u, geometric_counting_channel(u, "a", ratio=Fraction(1, 3))


def test_criterion_01_one_change_sup_matches_dp_level():
    fam = FamilyParams(k=1)
    worst_gap = 0.0
    t0 = time.perf_counter()
    for trial in range(50):
        rng = random.Random(9000 + trial)
        u = random_universe(rng, n_max=3, m_max=3)
        ch = random_channel(rng, universe=u, out_range=(2, 5))
        dp = dp_epsilon(ch)
        best = None
        for i in range(u.n):
            sup = worstcase_sup(
                ch, fam, i, samples=1000, rng=random.Random(trial * 31 + i)
            )
            if best is None or float(sup.ratio) > best:
                best = float(sup.ratio)
        gap = abs(math.log(best) - dp.nats)
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    print(f"criterion 01: worst log gap {worst_gap:.3e} in {elapsed:.1f}s")
    assert worst_gap <= LOG_TOL
    assert elapsed < 60.0


def test_criterion_02_correlated_pair_leakage_closed_form():
    u, geo = geo_pair()
    for p in (Fraction(1, 100), Fraction(1, 10000)):
        prior = prior_from_flat(u, [[0, 1]], [[1 - p, 0, 0, p]])
        q = max_mi(prior, geo, (0,))
        expected = Fraction(3, 4) / (Fraction(3, 4) * p + (1 - p) * Fraction(1, 12))
        assert q.ratio == expected
    q_small = max_mi(
        prior_from_flat(
            u, [[0, 1]], [[1 - Fraction(1, 10000), 0, 0, Fraction(1, 10000)]]
        ),
        geo,
        (0,),
    )
    assert q_small.ratio == Fraction(1250, 139)
    assert abs(float(q_small.ratio) - 8.992805755395683) <= REL_TOL
    assert 8.99 < float(q_small.ratio) < 9.0
    q_big = max_mi(
        prior_from_flat(u, [[0, 1]], [[Fraction(99, 100), 0, 0, Fraction(1, 100)]]),
        geo,
        (0,),
    )
    assert abs(float(q_big.ratio) - 25.0 / 3.0) <= REL_TOL
    print("criterion 02: closed form exact at p=1/100 and p=1/10000")


def test_criterion_03_extremal_prior_attains_the_scan():
    checked = 0
    for trial in range(20):
        rng = random.Random(3100 + trial)
        u = random_universe(rng, n_max=3, m_max=3)
        ch = random_channel(rng, universe=u, out_range=(2, 5))
        for k in sorted({1, 2, u.n}):
            res = tightness_pk(ch, k)
            assert res.attained, (trial, k, res)
            scan = float(res.scan.ratio)
            if math.isfinite(scan):
                got = float(res.achieved_ratio)
                assert abs(got - scan) <= REL_TOL * max(1.0, scan), (trial, k)
            checked += 1
    print(f"criterion 03: {checked} scan attainment checks")


def test_criterion_04_interpolated_bound_never_violated():
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    violations = 0
    _, geo = geo_pair()
    scenarios = [(geo, 2, Fraction(3))]
    for trial in range(2):
        rng = random.Random(7700 + trial)
        u = random_universe(rng, n_max=2, m_max=2)
        ch = random_channel(rng, universe=u, out_range=(2, 4))
        k = 2 if u.n > 1 else 1
        scenarios.append((ch, k, lipschitz_ratio(ch, 1).ratio))
    for idx, (ch, k, step) in enumerate(scenarios):
        for ed in deltas:
            v = bound_pdelta(
                ch,
                k,
                exp_delta=ed,
                exp_eps_step=step,
                samples=1000,
                rng=random.Random(idx * 17 + int(ed * 4)),
            )
            if not v.satisfied:
                violations += 1
            if ed == 0:
                assert v.bound_ratio == step
            if ed == 1:
                assert v.bound_ratio == step**k
    assert violations == 0
    print(f"criterion 04: 0 violations over {len(scenarios) * len(deltas)} runs")


def test_criterion_05_leakage_quantities_are_ordered():
    instances = 10_000
    violations = 0
    for trial in range(instances):
        rng = random.Random(40000 + trial)
        u = random_universe(rng, n_max=2, m_max=2)
        ch = random_channel(rng, universe=u, out_range=(2, 4), zero_prob=0.1)
        prior = random_prior(rng, u)
        tgt = (rng.randrange(u.n),)
        tables = JointTables(prior, ch, tgt)
        v_inf = inferential_eps(prior, ch, tgt, tables=tables).nats
        v_max = max_mi(prior, ch, tgt, tables=tables).nats
        v_rel = max_rel_entropy(prior, ch, tgt, tables=tables).nats
        v_mi = mi(prior, ch, tgt, tables=tables).nats
        ok = (
            v_inf >= v_max - REL_TOL
            and v_max >= v_rel - REL_TOL
            and v_rel >= v_mi - REL_TOL
        )
        if not ok:
            violations += 1
    assert violations == 0
    print(f"criterion 05: ordering held on {instances} sampled instances")


def test_criterion_06_product_release_respects_summed_levels():
    u, geo = geo_pair()
    rr = randomized_response_channel(u, HALF)
    lvl_geo = dp_epsilon(geo).ratio
    lvl_rr = dp_epsilon(rr).ratio
    verdict = certify_composition([geo, rr], 1, exp_epsilons=[lvl_geo, lvl_rr])
    assert verdict.satisfied and verdict.conclusive
    prod = product_channel([geo, rr])
    assert dp_epsilon(prod).ratio <= lvl_geo * lvl_rr

    # every sampled one-block member stays inside the summed level too
    bound = float(lvl_geo * lvl_rr)
    members = 0
    rng = random.Random(606)
    while members < 40:
        prior = sample_prior(u, FamilyParams(k=1), rng)
        if prior is None:
            continue
        q = max_mi(prior, prod, (0,))
        assert float(q.ratio) <= bound * (1 + REL_TOL)
        members += 1

    # exact subadditivity on rational channels of both shapes
    u1 = uniform_universe(1, (BOT, "a"))
    rr1 = randomized_response_channel(u1, HALF)
    prod1 = product_channel([rr1, rr1])
    assert dp_epsilon(prod1).ratio == Fraction(9)
    prod_gg = product_channel([geo, geo])
    assert dp_epsilon(prod_gg).ratio <= dp_epsilon(geo).ratio ** 2

    # float channels keep the inequality up to rounding
    for trial in range(8):
        rng = random.Random(6100 + trial)
        uu = random_universe(rng, n_max=2, m_max=2)
        c1 = random_channel(rng, universe=uu, out_range=(2, 3))
        c2 = random_channel(rng, universe=uu, out_range=(2, 3))
        lhs = float(dp_epsilon(product_channel([c1, c2])).ratio)
        rhs = float(dp_epsilon(c1).ratio) * float(dp_epsilon(c2).ratio)
        assert lhs <= rhs * (1 + MI_TOL)
    print("criterion 06: composition bound held on every instance")


def test_criterion_07_epoch_leakage_is_additive():
    u1 = uniform_universe(1, (BOT, "a"))
    rr1 = randomized_response_channel(u1, HALF)
    prior1 = independent_prior(u1, [{BOT: HALF, "a": HALF}])
    model = EpochModel(((prior1, rr1), (prior1, rr1)))
    rep = epoch_leakage(model, 0)
    assert rep.total_ratio == Fraction(9, 4)
    assert [q.ratio for q in rep.per_epoch] == [Fraction(3, 2), Fraction(3, 2)]
    direct = direct_epoch_max_mi(model, 0)
    assert direct.ratio == Fraction(9, 4)

    for trial in range(10):
        rng = random.Random(7200 + trial)
        ua = uniform_universe(2, (BOT, "a"))
        ub = uniform_universe(2, (BOT, "a", "b"))
        epochs = []
        for uu in (ua, ub):
            epochs.append(
                (random_prior(rng, uu), random_channel(rng, universe=uu))
            )
        m = EpochModel(tuple(epochs))
        tgt = rng.randrange(2)
        r = epoch_leakage(m, tgt)
        total = sum(q.nats for q in r.per_epoch)
        assert abs(r.total_nats - total) <= REL_TOL
        d = direct_epoch_max_mi(m, tgt)
        assert abs(d.nats - r.total_nats) <= REL_TOL * max(1.0, abs(r.total_nats))
    print("criterion 07: additive totals exact and within 1e-9")


def test_criterion_08_group_chain_holds():
    runs = 0
    for trial in range(4):
        rng = random.Random(8800 + trial)
        u = uniform_universe(3, (BOT, "a"))
        ch = random_channel(rng, universe=u, out_range=(2, 4))
        for k in (1, 2):
            unit = lipschitz_ratio(ch, k).ratio
            for size in (1, 2, 3):
                v = group_certify(
                    ch,
                    k,
                    list(range(size)),
                    exp_epsilon=unit,
                    samples=40,
                    rng=random.Random(trial * 13 + size),
                )
                assert v.satisfied, (trial, k, size)
                mid = float(v.details["bound_intermediate"])
                full = float(v.details["bound_group"])
                assert float(v.measured_ratio) <= mid * (1 + REL_TOL)
                assert mid <= full * (1 + REL_TOL)
                runs += 1
    assert runs == 24
    print(f"criterion 08: chain held on {runs} group runs")


def test_criterion_09_postprocessing_never_raises_mi():
    u, geo = geo_pair()
    rr = randomized_response_channel(u, HALF)
    rng_f = random.Random(91)
    uf = random_universe(rng_f, n_max=2, m_max=2)
    float_ch = random_channel(rng_f, universe=uf, out_range=(3, 5))
    cases = [
        (geo, independent_prior(u, [{BOT: HALF, "a": HALF}] * 2)),
        (rr, independent_prior(u, [{BOT: Fraction(1, 3), "a": Fraction(2, 3)}] * 2)),
        (float_ch, random_prior(rng_f, uf)),
    ]
    for ci, (ch, prior) in enumerate(cases):
        before = mi(prior, ch, (0,)).nats
        n_out = len(ch.outcomes)
        for m in range(100):
            rng = random.Random(ci * 1000 + m)
            width = rng.randint(1, n_out - 1)
            mapping = {
                label: f"m{rng.randrange(width)}" for label in ch.outcomes
            }
            merged = postprocess(ch, mapping)
            after = mi(prior, merged, (0,)).nats
            assert after <= before + MI_TOL, (ci, m, before, after)
    print("criterion 09: 300 merges, mi never increased")


def test_criterion_10_reports_are_byte_stable(tmp_path):
    scenario = {
        "name": "determinism",
        "universe": {"n": 2, "alphabet": ["BOT", "a"]},
        "priors": {"uniform": {"independent": [["1/2", "1/2"], ["1/2", "1/2"]]}},
        "mechanisms": {
            "geo": {
                "type": "geometric_counting",
                "target_symbol": "a",
                "ratio": "1/3",
            }
        },
        "samples": 300,
        "bound": {
            "kind": "worstcase",
            "mechanism": "geo",
            "target": 0,
            "family": {"k": 1},
            "exp_epsilon": "4",
        },
        "certify": {
            "kind": "group",
            "mechanism": "geo",
            "k": 1,
            "group": [0, 1],
            "exp_epsilon": "3",
        },
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in ("bound", "certify"):
        for fmt in ("json", "table"):
            argv = [command, str(path), "--format", fmt]
            outputs = []
            for _ in range(2):
                out = io.StringIO()
                err = io.StringIO()
                code = run(argv, stdout=out, stderr=err)
                assert code == 0, (command, fmt, err.getvalue())
                outputs.append(out.getvalue())
            proc = subprocess.run(
                [sys.executable, "-m", "privlens", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, (command, fmt, proc.stderr)
            outputs.append(proc.stdout)
            assert outputs[0] == outputs[1] == outputs[2], (command, fmt)
    print("criterion 10: byte-identical reports across runs and processes")
