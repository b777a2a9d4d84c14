import math
import random
from fractions import Fraction

import pytest

from privlens import (
    BOT,
    EnumerationBudgetError,
    JointPrior,
    LeakageError,
    expected_distortion,
    geometric_counting_channel,
    independent_prior,
    inferential_eps,
    leakage_report,
    matrix_channel,
    max_mi,
    max_rel_entropy,
    mi,
    output_entropy,
    randomized_response_channel,
    uniform_universe,
)

from privlens.probability import entropy_nats

from gen import random_channel, random_prior, random_universe

HALF = Fraction(1, 2)

RR_MI_NATS = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)


def keep_half_setup():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}])
    return prior, randomized_response_channel(u, HALF)


# ---------------------------------------------------------------------------
# fixture values for randomized response at keep probability one half
# ---------------------------------------------------------------------------


def test_rr_max_mi_is_three_halves():
    prior, ch = keep_half_setup()
    q = max_mi(prior, ch, 0)
    assert q.ratio == Fraction(3, 2)
    assert abs(q.nats - math.log(1.5)) < 1e-12
    assert q.witness["records"] in ([BOT], ["a"])


def test_rr_mutual_information_value():
    prior, ch = keep_half_setup()
    q = mi(prior, ch, 0)
    assert abs(q.nats - RR_MI_NATS) < 1e-12
    assert abs(q.nats - 0.13081203594113697) < 1e-12
    assert q.ratio is None


def test_rr_inferential_eps_is_three():
    prior, ch = keep_half_setup()
    q = inferential_eps(prior, ch, 0)
    assert q.ratio == 3
    assert abs(q.nats - math.log(3)) < 1e-12


def test_rr_max_rel_entropy_equals_mi_here():
    # Symmetric binary channel under a uniform prior: every outcome induces
    # the same posterior KL, which is also the average.
    prior, ch = keep_half_setup()
    q = max_rel_entropy(prior, ch, 0)
    assert abs(q.nats - RR_MI_NATS) < 1e-12


def test_rr_output_entropy_is_log_two():
    prior, ch = keep_half_setup()
    q = output_entropy(prior, ch)
    assert abs(q.nats - math.log(2)) < 1e-12
    assert abs(q.bits - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# oracle comparison on random instances
# ---------------------------------------------------------------------------


def max_mi_oracle(prior, channel, tgt):
    """Mixture form over full sequence enumeration, prior.prob per sequence.

    Deliberately avoids iter_support so the joint is assembled through a
    different code path than the implementation under test.
    """
    u = prior.universe
    p_x = {}
    p_r = {}
    joint = {}
    for seq in u.iter_sequences():
        p = float(prior.prob(seq))
        if p == 0.0:
            continue
        xv = tuple(seq[i] for i in tgt)
        p_x[xv] = p_x.get(xv, 0.0) + p
        row = channel.rows[u.to_histogram(seq, validate=False)]
        for j, q in enumerate(row):
            if q == 0:
                continue
            w = p * float(q)
            joint[(xv, j)] = joint.get((xv, j), 0.0) + w
            p_r[j] = p_r.get(j, 0.0) + w
    best = None
    for (xv, j), w in joint.items():
        if w <= 0.0:
            continue
        r = (w / p_x[xv]) / p_r[j]
        if best is None or r > best:
            best = r
    return 0.0 if best is None else math.log(best)


def test_max_mi_matches_mixture_oracle():
    rng = random.Random(29)
    for _ in range(40):
        u = random_universe(rng)
        prior = random_prior(rng, u)
        ch = random_channel(rng, u, zero_prob=0.3)
        size = rng.randint(1, u.n)
        tgt = tuple(sorted(rng.sample(range(u.n), size)))
        got = max_mi(prior, ch, tgt)
        assert abs(got.nats - max_mi_oracle(prior, ch, tgt)) < 1e-9


def test_leakage_chain_on_random_instances():
    rng = random.Random(59)
    for _ in range(30):
        u = random_universe(rng)
        prior = random_prior(rng, u)
        ch = random_channel(rng, u)
        rep = leakage_report(prior, ch)
        for tgt in rep.targets:
            per = rep.per_target[tgt]
            inf_n = per["inferential_eps"].nats
            mmi_n = per["max_mi"].nats
            mre_n = per["max_rel_entropy"].nats
            mi_n = per["mi"].nats
            assert inf_n >= mmi_n - 1e-9
            assert mmi_n >= mre_n - 1e-9
            assert mre_n >= mi_n - 1e-9


# ---------------------------------------------------------------------------
# zero-probability conventions
# ---------------------------------------------------------------------------


def test_identity_channel_gives_infinite_inferential_eps():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}])
    ch = matrix_channel(u, ("zero", "one"), {(0,): [1, 0], (1,): [0, 1]})
    q = inferential_eps(prior, ch, 0)
    assert q.ratio == math.inf
    assert q.nats == math.inf
    assert max_mi(prior, ch, 0).ratio == 2


def test_point_mass_prior_is_vacuous_for_inferential_eps():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: Fraction(1)}])
    ch = randomized_response_channel(u, HALF)
    q = inferential_eps(prior, ch, 0)
    assert q.ratio == 1
    assert q.nats == 0.0
    assert any("vacuous" in n for n in q.notes)
    assert max_mi(prior, ch, 0).ratio == 1


def test_zero_probability_outcomes_are_skipped():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}])
    ch = matrix_channel(
        u, (0, 1, 2), {(0,): ["1/2", "1/2", 0], (1,): ["1/4", "3/4", 0]}
    )
    q = max_mi(prior, ch, 0)
    assert q.ratio == Fraction(4, 3)


# ---------------------------------------------------------------------------
# exact values outside the float range
# ---------------------------------------------------------------------------

TINY = Fraction(1, 10**400)


def test_geometric_ratio_below_the_float_range_is_the_counting_limit():
    # Noise cells of mass about 1e-400 are 0.0 as floats and add nothing,
    # so every float quantity is that of the noiseless count.
    u = uniform_universe(2, (BOT, "a"))
    tables = ({(BOT, BOT): Fraction(9, 20), (BOT, "a"): Fraction(1, 20),
               ("a", BOT): Fraction(1, 20), ("a", "a"): Fraction(9, 20)},)
    prior = JointPrior(u, ((0, 1),), tables)
    tiny = leakage_report(prior, geometric_counting_channel(u, "a", ratio=TINY))
    count = leakage_report(prior, matrix_channel(
        u, (0, 1, 2), {(c,): [int(j == c) for j in range(3)]
                       for c in range(3)}))
    assert tiny.output_entropy == count.output_entropy
    for tgt, quantities in tiny.per_target.items():
        for name in ("mi", "max_rel_entropy"):
            assert quantities[name] == count.per_target[tgt][name], name
        assert quantities["inferential_eps"].ratio > 10**399


def test_prior_mass_below_the_float_range_adds_nothing():
    # The record of mass 1e-400 is 0.0 as a float: its entropy and mi
    # terms are zero, so the quantities are those of the point mass.
    u = uniform_universe(1, (BOT, "a"))
    ch = randomized_response_channel(u, HALF)
    tiny = independent_prior(u, [{BOT: TINY, "a": 1 - TINY}])
    assert entropy_nats([TINY, 1 - TINY]) == 0.0
    assert tiny.entropy_nats() == 0.0
    assert mi(tiny, ch, 0).nats == 0.0
    rep = leakage_report(tiny, ch)
    assert rep.prior_entropy_nats == 0.0
    assert rep.per_target[(0,)]["inferential_eps"].ratio == 3


def test_float_denominators_that_underflow_use_the_exact_quotient():
    u = uniform_universe(1, (BOT, "a"))
    identity = matrix_channel(u, ("zero", "one"),
                              {(0,): [1, 0], (1,): [0, 1]})
    # p_x * p_r = 1e-400 underflows while the joint mass 1e-200 does not:
    # the term is 1e-200 * log(10**200).
    d = Fraction(1, 10**200)
    q = mi(independent_prior(u, [{BOT: 1 - d, "a": d}]), identity, 0)
    assert math.isclose(q.nats, 1e-200 * 200 * math.log(10), rel_tol=1e-12)
    # p_r and p_x of 1e-400 are 0.0 as floats: the posterior at "one" is
    # exactly 1, and its divergence from the prior is log(10**400).
    prior = independent_prior(u, [{BOT: 1 - TINY, "a": TINY}])
    q = max_rel_entropy(prior, identity, 0)
    assert math.isclose(q.nats, 400 * math.log(10), rel_tol=1e-12)
    assert q.witness == {"outcome": "one"}
    assert output_entropy(prior, identity).nats == 0.0
    # An outcome of mass 3e-400 / 2: posterior (1/3, 2/3) against (1/2, 1/2).
    half = independent_prior(u, [{BOT: HALF, "a": HALF}])
    rare = matrix_channel(u, ("common", "rare"),
                          {(0,): [1 - TINY, TINY], (1,): [1 - 2 * TINY, 2 * TINY]})
    q = max_rel_entropy(half, rare, 0)
    kl = math.log(2 / 3) / 3 + 2 * math.log(4 / 3) / 3
    assert math.isclose(q.nats, kl, rel_tol=1e-12)
    assert q.witness == {"outcome": "rare"}
    assert output_entropy(half, rare).nats == 0.0


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_defaults_to_singleton_targets():
    rng = random.Random(3)
    u = uniform_universe(2, (BOT, "a"))
    prior = random_prior(rng, u)
    ch = randomized_response_channel(u, HALF)
    rep = leakage_report(prior, ch)
    assert rep.targets == ((0,), (1,))
    assert set(rep.per_target[(0,)]) == {
        "max_mi",
        "mi",
        "max_rel_entropy",
        "inferential_eps",
    }
    assert abs(rep.prior_entropy_nats - prior.entropy_nats()) < 1e-12


def test_joint_target_normalization():
    prior, ch = keep_half_setup()
    with pytest.raises(LeakageError):
        max_mi(prior, ch, ())
    with pytest.raises(LeakageError):
        max_mi(prior, ch, 5)


def test_mismatched_universes_are_rejected():
    u1 = uniform_universe(1, (BOT, "a"))
    u2 = uniform_universe(1, (BOT, "a", "b"))
    prior = independent_prior(u2, [{BOT: HALF, "a": HALF}])
    ch = randomized_response_channel(u1, HALF)
    with pytest.raises(LeakageError):
        max_mi(prior, ch, 0)


def test_equal_alphabets_count_as_the_same_universe():
    u1 = uniform_universe(1, (BOT, "a"))
    u2 = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u2, [{BOT: HALF, "a": HALF}])
    ch = randomized_response_channel(u1, HALF)
    assert max_mi(prior, ch, 0).ratio == Fraction(3, 2)


def test_support_budget_is_enforced():
    u = uniform_universe(2, (BOT, "a"))
    prior = independent_prior(
        u, [{BOT: HALF, "a": HALF}, {BOT: HALF, "a": HALF}]
    )
    ch = randomized_response_channel(u, HALF)
    with pytest.raises(EnumerationBudgetError) as exc:
        max_mi(prior, ch, 0, budget=3)
    assert exc.value.cardinality == 4


# ---------------------------------------------------------------------------
# utility loss
# ---------------------------------------------------------------------------


def test_expected_distortion_geometric_fixture():
    u = uniform_universe(2, (BOT, "a"))
    prior = independent_prior(
        u, [{BOT: HALF, "a": HALF}, {BOT: HALF, "a": HALF}]
    )
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    val = expected_distortion(
        prior, ch, lambda h: h[0], lambda a, b: abs(a - b)
    )
    assert abs(val - 5.0 / 12.0) < 1e-12


def test_expected_distortion_accepts_a_mapping_query():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}])
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 2))
    table = {(0,): 0, (1,): 1}
    val = expected_distortion(prior, ch, table, lambda a, b: abs(a - b))
    direct = expected_distortion(prior, ch, lambda h: h[0], lambda a, b: abs(a - b))
    assert abs(val - direct) < 1e-15


def test_expected_distortion_validates_the_metric():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}])
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 2))
    with pytest.raises(LeakageError):
        expected_distortion(prior, ch, lambda h: h[0], lambda a, b: -1.0)
    with pytest.raises(LeakageError):
        expected_distortion(prior, ch, lambda h: h[0], lambda a, b: 1.0)
    with pytest.raises(LeakageError):
        expected_distortion(prior, ch, {(0,): 0}, lambda a, b: abs(a - b))
