import itertools
import math
import random
from fractions import Fraction

import pytest

from privlens import (
    AuditError,
    BOT,
    FamilyParams,
    bound_pdelta,
    certify_pk,
    dp_epsilon,
    geometric_counting_channel,
    group_certify,
    independent_prior,
    interpolated_bound,
    lipschitz_ratio,
    matrix_channel,
    max_mi,
    necessary_pdelta,
    personalized_check,
    randomized_response_channel,
    sufficient_nk,
    tightness_pk,
    uniform_universe,
    uniformity_band,
    worstcase_sup,
)

from privlens.audit import leq_with_tol

from gen import random_channel, random_universe

HALF = Fraction(1, 2)


def geo_third(n=2):
    return geometric_counting_channel(
        uniform_universe(n, (BOT, "a")), "a", ratio=Fraction(1, 3)
    )


# ---------------------------------------------------------------------------
# direct certificates
# ---------------------------------------------------------------------------


def test_certify_pk_passes_at_the_exact_level():
    v = certify_pk(geo_third(), 1, exp_epsilon=Fraction(3))
    assert v.satisfied
    assert v.conclusive
    assert v.measured_ratio == 3
    assert v.witness is not None


def test_certify_pk_refutes_below_the_level():
    v = certify_pk(geo_third(), 1, exp_epsilon=Fraction(2))
    assert not v.satisfied
    assert v.conclusive
    assert v.measured_ratio == 3


def test_certify_pk_epsilon_spelling():
    v = certify_pk(geo_third(), 1, epsilon=math.log(3.0))
    assert v.satisfied


def test_certify_pk_two_changes_needs_the_squared_level():
    ch = geo_third()
    assert not certify_pk(ch, 2, exp_epsilon=Fraction(3)).satisfied
    assert certify_pk(ch, 2, exp_epsilon=Fraction(9)).satisfied


def test_certify_pk_argument_errors():
    ch = geo_third()
    with pytest.raises(AuditError):
        certify_pk(ch, 0, exp_epsilon=Fraction(3))
    with pytest.raises(AuditError):
        certify_pk(ch, 1)
    with pytest.raises(AuditError):
        certify_pk(ch, 1, epsilon=1.0, exp_epsilon=Fraction(3))
    with pytest.raises(AuditError):
        certify_pk(ch, 1, exp_epsilon=0)


def test_nan_level_is_refused_before_the_scan():
    # Budget 1 would stop the scan; the level is read first.
    with pytest.raises(AuditError, match="epsilon must be a number, got nan"):
        certify_pk(geo_third(), 1, epsilon=math.nan, budget=1)


# ---------------------------------------------------------------------------
# worst-case family search
# ---------------------------------------------------------------------------


def test_worstcase_sup_reaches_the_one_change_level():
    ch = geo_third()
    sup = worstcase_sup(ch, FamilyParams(k=1), 0, samples=0)
    assert sup.conclusive
    assert abs(float(sup.ratio) - 3.0) < 1e-9
    assert sup.witness["origin"] == "extremal"


def test_worstcase_sup_block_budget_unlocks_longer_moves():
    ch = geo_third()
    sup = worstcase_sup(ch, FamilyParams(k=2), 0, samples=0)
    assert abs(float(sup.ratio) - 9.0) < 1e-6


def test_worstcase_sup_agrees_with_the_row_scan():
    rng = random.Random(137)
    for _ in range(6):
        u = random_universe(rng)
        ch = random_channel(rng, u)
        per_target = []
        for i in range(u.n):
            sup = worstcase_sup(ch, FamilyParams(k=1), i, samples=0)
            per_target.append(sup.nats)
        dp = dp_epsilon(ch)
        assert abs(max(per_target) - dp.nats) < 1e-6


def test_worstcase_sup_sampling_never_beats_extremal():
    ch = geo_third()
    sup = worstcase_sup(
        ch,
        FamilyParams(k=1),
        0,
        rng=random.Random(1),
        samples=200,
    )
    assert sup.conclusive
    assert sup.witness["origin"] == "extremal"
    assert sup.evaluated["sampled"] == 200


def test_worstcase_sup_sampled_only_is_inconclusive():
    # The band puts every near-point-mass pair out of the family, so only
    # sampled members are measured.
    ch = geo_third()
    sup = worstcase_sup(ch, FamilyParams(k=1, ell=2, tau=0.0), 0, samples=20)
    assert sup.evaluated["extremal"] == 0
    assert sup.evaluated["sampled"] == 20
    assert not sup.conclusive
    assert any("seeded with 0" in n for n in sup.notes)


def test_worstcase_sup_is_deterministic_per_seed():
    ch = geo_third()
    runs = []
    for _ in range(2):
        sup = worstcase_sup(
            ch,
            FamilyParams(k=1),
            0,
            rng=random.Random(42),
            samples=50,
        )
        runs.append(sup)
    assert runs[0].ratio == runs[1].ratio
    assert runs[0].witness == runs[1].witness
    assert runs[0].evaluated == runs[1].evaluated


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


def test_tightness_on_the_geometric_channel():
    ch = geo_third()
    t1 = tightness_pk(ch, 1)
    assert t1.attained
    assert abs(float(t1.achieved_ratio) - 3.0) < 1e-9
    t2 = tightness_pk(ch, 2)
    assert t2.attained
    assert abs(float(t2.achieved_ratio) - 9.0) < 1e-9


def test_tightness_handles_hard_zeros():
    u = uniform_universe(1, (BOT, "a"))
    ch = matrix_channel(u, (0, 1), {(0,): [1, 0], (1,): [0, 1]})
    t = tightness_pk(ch, 1)
    assert t.scan.ratio == math.inf
    assert t.attained
    assert any("1/eta ceiling" in n for n in t.notes)


def test_tightness_on_a_vacuous_scan():
    u = uniform_universe(1, ("a",))
    ch = matrix_channel(u, (0, 1), {(1,): ["1/2", "1/2"]})
    t = tightness_pk(ch, 1)
    assert t.attained
    assert t.target is None
    assert any("vacuous" in n for n in t.notes)


def test_tightness_on_random_channels():
    rng = random.Random(211)
    for _ in range(10):
        u = random_universe(rng)
        ch = random_channel(rng, u)
        for k in (1, u.n):
            t = tightness_pk(ch, k)
            assert t.attained


# ---------------------------------------------------------------------------
# interpolated bound under bounded dependence
# ---------------------------------------------------------------------------


def test_interpolated_bound_exact_values():
    assert interpolated_bound(Fraction(3), 2, HALF) == 6
    assert interpolated_bound(Fraction(3), 2, Fraction(0)) == 3
    assert interpolated_bound(Fraction(3), 2, Fraction(1)) == 9


@pytest.mark.parametrize("exp_delta", [Fraction(0), HALF, Fraction(1), 0.0])
def test_interpolated_bound_of_an_infinite_step_is_infinite(exp_delta):
    # inf * 0 is NaN, so no weight of an infinite step may be multiplied.
    assert interpolated_bound(math.inf, 2, exp_delta) == math.inf


def test_bound_pdelta_on_the_geometric_fixture():
    v = bound_pdelta(
        geo_third(),
        2,
        exp_delta=HALF,
        exp_eps_step=Fraction(3),
        rng=random.Random(7),
        samples=100,
    )
    assert v.satisfied
    assert v.conclusive
    assert v.bound_ratio == 6
    assert 3.0 < float(v.measured_ratio) <= 6.0


def test_bound_pdelta_endpoints_collapse():
    lo = bound_pdelta(
        geo_third(), 2, exp_delta=Fraction(0), exp_eps_step=Fraction(3),
        samples=0,
    )
    assert lo.bound_ratio == 3
    assert any("per-step level" in n for n in lo.notes)
    hi = bound_pdelta(
        geo_third(), 2, exp_delta=Fraction(1), exp_eps_step=Fraction(3),
        samples=0,
    )
    assert hi.bound_ratio == 9
    assert any("k-step level" in n for n in hi.notes)
    assert lo.satisfied and hi.satisfied


def test_bound_pdelta_checks_its_premise():
    with pytest.raises(AuditError):
        bound_pdelta(geo_third(), 2, exp_delta=HALF, exp_eps_step=Fraction(2))
    with pytest.raises(AuditError):
        bound_pdelta(geo_third(), 0, exp_delta=HALF, exp_eps_step=Fraction(3))
    with pytest.raises(AuditError):
        bound_pdelta(geo_third(), 2, exp_delta=HALF)


@pytest.mark.parametrize("level, message", [
    ({"exp_eps_step": Fraction(3), "epsilon": "x"}, "exactly one of epsilon"),
    ({"exp_eps_step": 0}, "level must be positive"),
    ({"epsilon": math.nan}, "epsilon must be a number, got nan"),
], ids=["both", "zero", "nan"])
def test_bound_pdelta_reads_its_level_as_every_level_is_read(level, message):
    # Budget 1 would stop the charge of k = 2; the level is read first.
    with pytest.raises(AuditError, match=message):
        bound_pdelta(geo_third(), 2, exp_delta=HALF, budget=1, **level)


def test_leq_with_tol_decides_exactly_beyond_the_float_range():
    huge = Fraction(10**400)
    assert not leq_with_tol(huge, 3)
    assert not leq_with_tol(huge, 1e308)
    assert leq_with_tol(2.5, huge)
    assert leq_with_tol(3, huge + 1)
    # Two Fractions compare exactly: no tolerance, however large they are.
    assert not leq_with_tol(huge + huge / 10**10, huge)
    assert not leq_with_tol(huge + huge / 10**8, huge)


def test_levels_beyond_the_float_range_get_a_verdict():
    # A geometric ratio of 1e-400 puts the one-change level at 10**400.
    ch = geometric_counting_channel(uniform_universe(2, (BOT, "a")), "a",
                                    ratio=Fraction(1, 10**400))
    v = certify_pk(ch, 1, exp_epsilon=Fraction(3))
    assert not v.satisfied
    assert v.measured_ratio == 10**400
    assert math.isclose(v.measured_nats, 400 * math.log(10), rel_tol=1e-12)
    assert certify_pk(ch, 1, exp_epsilon=Fraction(10**400)).satisfied
    with pytest.raises(AuditError, match="one-change ratio inf exceeds "
                       "per-step bound 3.0"):
        bound_pdelta(ch, 2, exp_delta=HALF, exp_eps_step=Fraction(3))


# ---------------------------------------------------------------------------
# mediant necessary condition
# ---------------------------------------------------------------------------


def test_necessary_pdelta_endpoint_identities():
    ch = geo_third()
    full_dep = necessary_pdelta(ch, exp_delta=Fraction(1), exp_epsilon=Fraction(3))
    assert full_dep.measured_ratio == 3
    assert full_dep.satisfied
    free = necessary_pdelta(ch, exp_delta=Fraction(0), exp_epsilon=Fraction(9))
    assert free.measured_ratio == 9
    assert free.satisfied
    assert any("exp_delta below 1/2" in n for n in free.notes)


def test_necessary_pdelta_interpolates_between_the_endpoints():
    ch = geo_third()
    mid = necessary_pdelta(ch, exp_delta=HALF, exp_epsilon=Fraction(9))
    assert 3 < mid.measured_ratio < 9
    assert not any("below 1/2" in n for n in mid.notes)


def test_necessary_scan_is_monotone_and_sandwiched():
    # Each mediant cell interpolates between the unrestricted pair ratio at
    # exp_delta 0 and the shared-complement ratio at exp_delta 1, so the scan
    # is nonincreasing in exp_delta and sits between the one-change and the
    # all-pairs levels.
    rng = random.Random(91)
    grid = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1))
    for _ in range(8):
        u = random_universe(rng, n_max=2, shared=True)
        ch = random_channel(rng, u, out_range=(2, 3))
        one_change = float(dp_epsilon(ch).ratio)
        all_pairs = float(lipschitz_ratio(ch, u.n).ratio)
        prev = None
        for ed in grid:
            v = necessary_pdelta(ch, exp_delta=ed, exp_epsilon=Fraction(1))
            cur = float(v.measured_ratio)
            assert one_change - 1e-9 <= cur <= all_pairs + 1e-9
            if prev is not None:
                assert cur <= prev + 1e-12
            prev = cur


# ---------------------------------------------------------------------------
# averaged sufficiency
# ---------------------------------------------------------------------------


def averaged_scan_oracle(channel, k):
    """Uniform-weight averaged scan by plain loops and float arithmetic."""
    u = channel.universe
    n = u.n
    n_out = len(channel.outcomes)
    best = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for avg_set in itertools.combinations(others, n - k - 1):
            free = [j for j in others if j not in avg_set]
            avg_cells = list(itertools.product(*(u.alphabets[j] for j in avg_set)))
            free_cells = list(itertools.product(*(u.alphabets[j] for j in free)))
            w = 1.0
            for j in avg_set:
                w /= len(u.alphabets[j])

            def avg_row(x_i, x_free):
                acc = [0.0] * n_out
                for x_avg in avg_cells:
                    s = [None] * n
                    s[i] = x_i
                    for j, sym in zip(avg_set, x_avg):
                        s[j] = sym
                    for j, sym in zip(free, x_free):
                        s[j] = sym
                    row = channel.rows[u.to_histogram(tuple(s), validate=False)]
                    for jj in range(n_out):
                        acc[jj] += w * float(row[jj])
                return acc

            table = {
                (x_i, xf): avg_row(x_i, xf)
                for x_i in u.alphabets[i]
                for xf in free_cells
            }
            for jj in range(n_out):
                for x_num in u.alphabets[i]:
                    num = max(table[(x_num, xf)][jj] for xf in free_cells)
                    for x_den in u.alphabets[i]:
                        if x_den == x_num:
                            continue
                        den = min(table[(x_den, xf)][jj] for xf in free_cells)
                        if den == 0.0:
                            if num == 0.0:
                                continue
                            r = math.inf
                        else:
                            r = num / den
                        best = max(best, r)
    return best


def test_sufficient_nk_matches_the_plain_loop_oracle():
    rng = random.Random(173)
    for _ in range(8):
        u = random_universe(rng, n_max=3)
        if u.n < 2:
            continue
        ch = random_channel(rng, u, out_range=(2, 3))
        for k in range(1, u.n):
            v = sufficient_nk(ch, k, exp_epsilon=Fraction(10**6))
            want = averaged_scan_oracle(ch, k)
            got = float(v.measured_ratio)
            if math.isinf(want) or math.isinf(got):
                assert math.isinf(want) and math.isinf(got)
            else:
                assert abs(got - want) < 1e-9 * max(1.0, want)
            assert v.conclusive


def test_sufficient_nk_averaging_beats_the_worst_case_scan():
    ch = geo_third(3)
    averaged = sufficient_nk(ch, 1, exp_epsilon=Fraction(100))
    raw = lipschitz_ratio(ch, 2)
    assert float(averaged.measured_ratio) <= float(raw.ratio) + 1e-12


def test_sufficient_nk_tau_positive_is_heuristic():
    ch = geo_third(3)
    v = sufficient_nk(ch, 1, exp_epsilon=Fraction(100), tau=0.1)
    assert not v.conclusive
    assert any("heuristic" in n for n in v.notes)
    base = sufficient_nk(ch, 1, exp_epsilon=Fraction(100))
    assert float(v.measured_ratio) >= float(base.measured_ratio) - 1e-12


def test_sufficient_nk_supplied_marginals():
    ch = geo_third(3)
    tau = 0.2
    lop = {BOT: 0.55, "a": 0.45}
    v = sufficient_nk(
        ch, 1, exp_epsilon=Fraction(100), tau=tau, marginals={1: lop, 2: lop}
    )
    assert v.conclusive
    assert any("supplied" in n for n in v.notes)
    with pytest.raises(AuditError):
        # the same marginal falls outside a much narrower band
        sufficient_nk(
            ch, 1, exp_epsilon=Fraction(100), tau=0.01, marginals={1: lop}
        )
    with pytest.raises(AuditError):
        sufficient_nk(
            ch, 1, exp_epsilon=Fraction(100), tau=tau,
            marginals={1: {BOT: 0.9, "a": 0.2}},
        )


def test_sufficient_nk_validates_marginals_with_the_band_test():
    # TOL applies to p * |alphabet|, as in uniformity_band: this marginal
    # is within TOL of uniform in each mass but leaves the tau = 0 band.
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    near = {BOT: 1 / 3 + 4e-10, "a": 1 / 3 + 4e-10, "b": 1 / 3 - 8e-10}
    assert uniformity_band(independent_prior(u, [near] * 3), 0.0) == (0, ())
    with pytest.raises(AuditError, match="leaves the band"):
        sufficient_nk(ch, 1, exp_epsilon=Fraction(100), tau=0.0,
                      marginals={1: near})
    with pytest.raises(AuditError, match="tau must be nonnegative"):
        sufficient_nk(ch, 1, exp_epsilon=Fraction(100), tau=math.nan)


def test_sufficient_nk_rejects_out_of_range_k():
    ch = geo_third(2)
    with pytest.raises(AuditError):
        sufficient_nk(ch, 0, exp_epsilon=Fraction(3))
    with pytest.raises(AuditError):
        sufficient_nk(ch, 2, exp_epsilon=Fraction(3))


# ---------------------------------------------------------------------------
# group privacy
# ---------------------------------------------------------------------------


def test_group_chain_on_the_geometric_fixture():
    v = group_certify(
        geo_third(),
        1,
        (0, 1),
        exp_epsilon=Fraction(3),
        rng=random.Random(5),
        samples=50,
    )
    assert v.satisfied
    assert v.params["hops"] == 2
    assert v.details["bound_intermediate"] == 9
    assert v.details["bound_group"] == 9
    assert abs(float(v.measured_ratio) - 9.0) < 1e-6


def test_group_chain_hops_round_up():
    u = uniform_universe(3, (BOT, "a"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    lip2 = lipschitz_ratio(ch, 2).ratio
    v = group_certify(
        ch,
        2,
        (0, 1, 2),
        exp_epsilon=lip2,
        rng=random.Random(9),
        samples=20,
    )
    assert v.params["hops"] == 2
    assert v.details["bound_intermediate"] == lip2**2
    assert v.details["bound_group"] == lip2**3
    assert v.satisfied


def test_group_premise_failure_raises():
    with pytest.raises(AuditError):
        group_certify(geo_third(), 1, (0, 1), exp_epsilon=Fraction(2), samples=0)


# ---------------------------------------------------------------------------
# personalized levels
# ---------------------------------------------------------------------------


def rr_two():
    u = uniform_universe(2, (BOT, "a"))
    prior = independent_prior(
        u, [{BOT: HALF, "a": HALF}, {BOT: HALF, "a": HALF}]
    )
    return prior, randomized_response_channel(u, HALF)


def test_personalized_levels_pass_and_fail():
    prior, ch = rr_two()
    per = [float(max_mi(prior, ch, i).nats) for i in range(2)]
    ok = personalized_check(ch, prior, [per[0] + 1e-6, per[1] + 1e-6])
    assert ok.satisfied
    assert ok.conclusive
    mixed = personalized_check(ch, prior, [per[0] + 1e-6, per[1] / 2])
    assert not mixed.satisfied
    rows = mixed.details["per_individual"]
    assert rows[0]["satisfied"]
    assert not rows[1]["satisfied"]


def test_personalized_accepts_a_mapping():
    prior, ch = rr_two()
    v = personalized_check(ch, prior, {0: 10.0, 1: 10.0})
    assert v.satisfied
    with pytest.raises(AuditError):
        personalized_check(ch, prior, {0: 10.0})
    with pytest.raises(AuditError):
        personalized_check(ch, prior, [10.0])
