import math
import random
from fractions import Fraction

import pytest

from privlens import (
    BOT,
    FamilyParams,
    JointPrior,
    PriorError,
    ProbabilityError,
    check_membership,
    dataset_distribution,
    extremal_pair_prior,
    extremal_pdelta_prior,
    independent_prior,
    prior_from_flat,
    sample_prior,
    sigma,
    uniform_universe,
    uniformity_band,
    verify_factorization,
)

from gen import random_prior, random_universe
from privlens.prior import _dirichlet
from privlens.probability import entropy_nats, left_sum


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def two_binary():
    return uniform_universe(2, (BOT, "a"))


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------


def test_blocks_must_partition():
    u = two_binary()
    with pytest.raises(PriorError):
        JointPrior(u, ((0,),), ({(BOT,): 1},))
    with pytest.raises(PriorError):
        JointPrior(u, ((0,), (0, 1)), ({(BOT,): 1}, {(BOT, BOT): 1}))


def test_table_must_normalize():
    u = two_binary()
    with pytest.raises(PriorError):
        independent_prior(u, [{BOT: HALF, "a": HALF}, {BOT: Fraction(2, 3)}])


def test_negative_cell_rejected():
    u = two_binary()
    with pytest.raises(PriorError):
        independent_prior(u, [{BOT: Fraction(3, 2), "a": -HALF}, {BOT: 1}])


def test_nan_cell_rejected():
    # NaN < 0 is false; the check is negated so that NaN fails it.
    u = two_binary()
    with pytest.raises(PriorError, match="negative probability"):
        JointPrior(u, ((0,), (1,)), ({(BOT,): math.nan, ("a",): 0.5},
                                     {(BOT,): 0.5, ("a",): 0.5}))


def test_prob_multiplies_blocks():
    u = two_binary()
    p = independent_prior(u, [{BOT: HALF, "a": HALF}, {BOT: QUARTER, "a": Fraction(3, 4)}])
    assert p.prob((BOT, "a")) == Fraction(3, 8)
    assert p.prob(("a", BOT)) == Fraction(1, 8)


def test_support_probabilities_sum_to_one():
    rng = random.Random(7)
    for _ in range(25):
        u = random_universe(rng)
        prior = random_prior(rng, u)
        total = sum(float(p) for _, p in prior.iter_support())
        assert abs(total - 1.0) < 1e-9


def test_marginal_matches_direct_summation():
    rng = random.Random(19)
    for _ in range(25):
        u = random_universe(rng)
        prior = random_prior(rng, u)
        size = rng.randint(1, u.n)
        idx = tuple(sorted(rng.sample(range(u.n), size)))
        marg = prior.marginal(idx)
        direct = {}
        for seq, p in prior.iter_support():
            key = tuple(seq[i] for i in idx)
            direct[key] = direct.get(key, 0) + p
        keys = set(marg) | set(direct)
        for key in keys:
            assert abs(float(marg.get(key, 0)) - float(direct.get(key, 0))) < 1e-9


def test_entropy_of_half_quarter_quarter():
    u = uniform_universe(1, (BOT, "a", "b"))
    p = independent_prior(u, [{BOT: HALF, "a": QUARTER, "b": QUARTER}])
    assert abs(p.entropy_nats() - 1.5 * math.log(2)) < 1e-12


def test_dataset_distribution_sums_to_one():
    rng = random.Random(4)
    for _ in range(15):
        u = random_universe(rng)
        prior = random_prior(rng, u)
        dist = dataset_distribution(prior)
        assert abs(sum(float(v) for v in dist.values()) - 1.0) < 1e-9
        for h in dist:
            assert h in u.achievable_histograms()


def test_prior_from_flat_row_major_order():
    u = two_binary()
    p = prior_from_flat(u, [(0, 1)], [["1/4", "1/4", "1/2", 0]])
    assert p.prob((BOT, BOT)) == QUARTER
    assert p.prob((BOT, "a")) == QUARTER
    assert p.prob(("a", BOT)) == HALF
    assert p.prob(("a", "a")) == 0


def test_prior_from_flat_needs_one_table_per_block():
    # An extra table is an error, not silently dropped by the zip.
    u = two_binary()
    for blocks, tables in (([(0,), (1,)], [[HALF, HALF]]),
                           ([(0, 1)], [[QUARTER] * 4, [HALF, HALF]])):
        with pytest.raises(PriorError, match="need one table per block"):
            prior_from_flat(u, blocks, tables)


def test_verify_factorization_accepts_the_truth():
    u = two_binary()
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}, {BOT: QUARTER, "a": Fraction(3, 4)}])
    table = {seq: p for seq, p in prior.iter_support()}
    ok, err, _ = verify_factorization(prior, table)
    assert ok
    assert err == 0


def test_verify_factorization_flags_a_perturbed_cell():
    u = two_binary()
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}, {BOT: QUARTER, "a": Fraction(3, 4)}])
    table = {seq: p for seq, p in prior.iter_support()}
    table[(BOT, BOT)] = table[(BOT, BOT)] + Fraction(1, 100)
    ok, err, witness = verify_factorization(prior, table)
    assert not ok
    assert abs(err - 0.01) < 1e-12
    assert witness == (BOT, BOT)


# ---------------------------------------------------------------------------
# dependence coefficient
# ---------------------------------------------------------------------------


def sigma_brute(prior):
    """Dependence coefficient straight from the definition.

    Conditions on each record value over the full joint support, no block
    shortcuts, float arithmetic throughout.
    """
    support = [(seq, p) for seq, p in prior.iter_support() if p > 0]
    best = None
    for i in range(prior.universe.n):
        by_val = {}
        for seq, p in support:
            comp = seq[:i] + seq[i + 1 :]
            d = by_val.setdefault(seq[i], {})
            d[comp] = d.get(comp, 0.0) + float(p)
        vals = [v for v in prior.universe.alphabets[i] if v in by_val]
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                da, db = by_val[vals[a]], by_val[vals[b]]
                ma, mb = sum(da.values()), sum(db.values())
                overlap = 0.0
                for comp, pa in da.items():
                    pb = db.get(comp)
                    if pb is not None:
                        overlap += min(pa / ma, pb / mb)
                if best is None or overlap < best:
                    best = overlap
    return 0.0 if best is None else 1.0 - best


def test_sigma_zero_for_independent_priors():
    rng = random.Random(23)
    for _ in range(10):
        u = random_universe(rng)
        prior = random_prior(rng, u, FamilyParams(k=1))
        val, _ = sigma(prior)
        assert float(val) < 1e-12


def test_sigma_one_for_a_perfect_copy():
    u = two_binary()
    prior = prior_from_flat(u, [(0, 1)], [[HALF, 0, 0, HALF]])
    val, witness = sigma(prior)
    assert val == 1
    assert witness == (0, BOT, "a")


def test_sigma_four_fifths_fixture():
    # Symmetric near-copy: staying probability 9/10 regardless of the record,
    # so the two conditionals overlap in exactly 1/5 of their mass.
    u = two_binary()
    prior = prior_from_flat(
        u,
        [(0, 1)],
        [[Fraction(9, 20), Fraction(1, 20), Fraction(1, 20), Fraction(9, 20)]],
    )
    val, _ = sigma(prior)
    assert val == Fraction(4, 5)


def test_sigma_point_mass_has_no_pairs():
    u = two_binary()
    prior = independent_prior(u, [{BOT: 1}, {"a": 1}])
    val, witness = sigma(prior)
    assert val == 0
    assert witness is None


def test_sigma_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        u = random_universe(rng)
        prior = random_prior(rng, u)
        val, _ = sigma(prior)
        assert abs(float(val) - sigma_brute(prior)) < 1e-9


def test_pdelta_construction_hits_half():
    u = two_binary()
    prior = extremal_pdelta_prior(
        u, 0, "a", BOT, (BOT,), (BOT,), ("a",), HALF, eta=Fraction(1, 1000)
    )
    val, _ = sigma(prior)
    assert val == HALF


def test_pdelta_construction_with_full_sharing_is_independent():
    u = two_binary()
    prior = extremal_pdelta_prior(
        u, 0, "a", BOT, (BOT,), (BOT,), ("a",), Fraction(1), eta=Fraction(1, 1000)
    )
    val, _ = sigma(prior)
    assert val == 0


# ---------------------------------------------------------------------------
# uniformity band
# ---------------------------------------------------------------------------


def test_band_exact_uniform_at_tau_zero():
    u = two_binary()
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}, {BOT: QUARTER, "a": Fraction(3, 4)}])
    count, members = uniformity_band(prior, 0.0)
    assert count == 1
    assert members == (0,)


def test_band_widens_with_tau():
    u = two_binary()
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}, {BOT: QUARTER, "a": Fraction(3, 4)}])
    count, members = uniformity_band(prior, math.log(2))
    assert count == 2
    assert members == (0, 1)


def test_band_rejects_zero_mass_records_for_finite_tau():
    u = two_binary()
    prior = independent_prior(u, [{BOT: 1}, {BOT: HALF, "a": HALF}])
    count, members = uniformity_band(prior, 5.0)
    assert members == (1,)
    count_inf, members_inf = uniformity_band(prior, math.inf)
    assert members_inf == (0, 1)


def test_band_rejects_a_nan_tau():
    # NaN < 0 is false; a NaN tau put no individual in the band.
    u = two_binary()
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}] * 2)
    with pytest.raises(PriorError, match="tau must be nonnegative"):
        uniformity_band(prior, math.nan)


@pytest.mark.parametrize("tau", [800, 10**400], ids=["800", "10**400"])
def test_band_beyond_the_float_range_is_unbounded(tau):
    # exp(800) and float(10**400) overflow: the band bounds nothing, as
    # tau = inf does, in membership and in the sampler's band draws.
    u = two_binary()
    prior = independent_prior(u, [{BOT: 1}, {BOT: HALF, "a": HALF}])
    assert uniformity_band(prior, tau) == (2, (0, 1))
    family = FamilyParams(ell=2, tau=tau)
    assert family.describe() == {"ell": 2, "tau": tau}
    assert check_membership(prior, family).ok
    assert sample_prior(u, family, random.Random(0)) is not None


# ---------------------------------------------------------------------------
# families and membership
# ---------------------------------------------------------------------------


def test_family_delta_spellings():
    f = FamilyParams.of(delta=-math.inf)
    assert f.exp_delta == 0.0
    g = FamilyParams.of(delta=math.log(0.5))
    assert abs(float(g.exp_delta) - 0.5) < 1e-12
    with pytest.raises(PriorError):
        FamilyParams.of(delta=0.5)
    with pytest.raises(PriorError):
        FamilyParams.of(delta=math.log(0.5), exp_delta=0.9)


@pytest.mark.parametrize("exp_delta, error", [
    ("0", None), ("1/2", PriorError), ("x", ProbabilityError),
    ([1], ProbabilityError), (10**400, PriorError),
], ids=["0", "1/2", "x", "[1]", "10**400"])
def test_family_reads_exp_delta_before_comparing_it_with_delta(exp_delta,
                                                               error):
    # exp_delta is parsed first, so a string or a non-number given with
    # delta is an input error, not a float() failure.
    if error is None:
        assert FamilyParams.of(delta=-math.inf, exp_delta=exp_delta).exp_delta == 0
        return
    with pytest.raises(error):
        FamilyParams.of(delta=-math.inf, exp_delta=exp_delta)


@pytest.mark.parametrize("params", [
    {"k": True}, {"exp_delta": True}, {"exp_delta": False}, {"ell": False},
    {"tau": True}, {"delta": False}])
def test_family_parameters_are_no_bools(params):
    # A bool is an int: k=True would search k = 1, delta=False exp_delta = 1.
    with pytest.raises(PriorError, match="must be a number, got"):
        FamilyParams.of(**params)
    if "delta" not in params:
        with pytest.raises(PriorError, match="must be a number, got"):
            FamilyParams(**params)


@pytest.mark.parametrize("params", [
    {"k": math.nan}, {"exp_delta": math.nan}, {"delta": math.nan},
    {"ell": math.nan}, {"tau": math.nan}])
def test_family_parameters_are_no_nan(params):
    # NaN fails every comparison, so no range check may pass it.
    with pytest.raises(PriorError, match="must be"):
        FamilyParams.of(**params)


def test_vacuous_family_admits_everything():
    rng = random.Random(2)
    u = random_universe(rng)
    prior = random_prior(rng, u)
    report = check_membership(prior, FamilyParams())
    assert report.ok
    assert any("no constraints" in n for n in report.notes)


def test_block_size_violation():
    u = two_binary()
    prior = prior_from_flat(u, [(0, 1)], [[QUARTER, QUARTER, QUARTER, QUARTER]])
    report = check_membership(prior, FamilyParams(k=1))
    assert not report.ok
    assert report.max_block_size == 2


def test_sigma_boundary_is_a_member():
    u = two_binary()
    prior = prior_from_flat(
        u,
        [(0, 1)],
        [[Fraction(9, 20), Fraction(1, 20), Fraction(1, 20), Fraction(9, 20)]],
    )
    at = check_membership(prior, FamilyParams(exp_delta=Fraction(4, 5)))
    assert at.ok
    below = check_membership(prior, FamilyParams(exp_delta=Fraction(3, 4)))
    assert not below.ok
    assert below.sigma_value == Fraction(4, 5)


def test_partial_band_parameters_are_vacuous_with_a_note():
    u = two_binary()
    prior = independent_prior(u, [{BOT: 1}, {"a": 1}])
    only_tau = check_membership(prior, FamilyParams(tau=0.0))
    assert only_tau.ok
    assert any("vacuous" in n for n in only_tau.notes)
    only_ell = check_membership(prior, FamilyParams(ell=2))
    assert only_ell.ok
    assert any("unbounded" in n for n in only_ell.notes)


def test_band_violation():
    u = two_binary()
    prior = independent_prior(u, [{BOT: 1}, {"a": 1}])
    report = check_membership(prior, FamilyParams(ell=1, tau=0.1))
    assert not report.ok
    assert report.band_count == 0


def test_sampler_respects_each_constraint():
    rng = random.Random(57)
    u = uniform_universe(3, (BOT, "a", "b"))
    cases = [
        FamilyParams(k=1),
        FamilyParams(k=2),
        FamilyParams.of(exp_delta=0),
        FamilyParams(exp_delta=HALF),
        FamilyParams(ell=2, tau=0.0),
        FamilyParams(k=2, exp_delta=Fraction(3, 4), ell=1, tau=0.0),
    ]
    for fam in cases:
        for _ in range(8):
            prior = sample_prior(u, fam, rng)
            assert prior is not None
            assert check_membership(prior, fam).ok


def test_sampler_tau_zero_marginals_are_exactly_uniform():
    rng = random.Random(5)
    u = uniform_universe(2, (BOT, "a", "b"))
    prior = sample_prior(u, FamilyParams(ell=2, tau=0.0), rng)
    for i in range(2):
        marg = prior.marginal((i,))
        for sym in u.alphabets[i]:
            assert marg[(sym,)] == Fraction(1, 3)


def test_sampler_is_deterministic_per_seed():
    u = uniform_universe(2, (BOT, "a"))
    fam = FamilyParams(k=2)
    a = sample_prior(u, fam, random.Random(99))
    b = sample_prior(u, fam, random.Random(99))
    assert a.blocks == b.blocks
    for ta, tb in zip(a.tables, b.tables):
        assert ta == tb


# ---------------------------------------------------------------------------
# extremal constructions
# ---------------------------------------------------------------------------


def test_extremal_pair_point_masses_on_agreeing_coordinates():
    u = uniform_universe(3, (BOT, "a", "b"))
    eta = Fraction(1, 100)
    prior = extremal_pair_prior(u, ("a", BOT, "b"), ("b", BOT, "b"), eta=eta)
    assert prior.prob(("a", BOT, "b")) == eta
    assert prior.prob(("b", BOT, "b")) == 1 - eta
    assert prior.prob((BOT, BOT, "b")) == 0


def test_extremal_pair_split_block_gives_independent_differing_coordinates():
    u = uniform_universe(3, (BOT, "a", "b"))
    eta = Fraction(1, 10)
    prior = extremal_pair_prior(u, ("a", "a", BOT), ("b", "b", BOT), block=(0,), eta=eta)
    assert prior.max_block_size() == 1
    assert prior.prob(("a", "b", BOT)) == eta * (1 - eta)


def test_extremal_pair_rejects_identical_sequences():
    u = two_binary()
    with pytest.raises(PriorError):
        extremal_pair_prior(u, (BOT, "a"), (BOT, "a"))


def test_extremal_pair_rejects_non_differing_block_coordinate():
    u = two_binary()
    with pytest.raises(PriorError):
        extremal_pair_prior(u, ("a", BOT), (BOT, BOT), block=(1,))


def test_pdelta_branch_weights():
    u = two_binary()
    eta = Fraction(1, 10)
    prior = extremal_pdelta_prior(
        u, 0, "a", BOT, (BOT,), (BOT,), ("a",), HALF, eta=eta
    )
    assert prior.prob(("a", BOT)) == eta
    assert prior.prob((BOT, BOT)) == (1 - eta) * HALF
    assert prior.prob((BOT, "a")) == (1 - eta) * HALF


def test_pdelta_rejects_equal_targets():
    u = two_binary()
    with pytest.raises(PriorError):
        extremal_pdelta_prior(u, 0, "a", "a", (BOT,), (BOT,), ("a",), HALF)


# ---------------------------------------------------------------------------
# float sums added left to right on every Python
# ---------------------------------------------------------------------------


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_left_sum_adds_floats_left_to_right():
    # From Python 3.12 the builtin sum() of these floats is 1.0.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([HALF, 0.25, QUARTER]) == 1.0
    assert left_sum([HALF, QUARTER]) == Fraction(3, 4)
    assert left_sum([]) == 0


def test_prior_entropy_adds_block_entropies_left_to_right():
    u = uniform_universe(4, (BOT, "a", "b"))
    rng = random.Random(4)
    marginals = []
    for _ in range(u.n):
        raw = [rng.random() for _ in range(3)]
        total = left_to_right(raw)
        marginals.append(dict(zip((BOT, "a", "b"), (w / total for w in raw))))
    prior = independent_prior(u, marginals)
    parts = [entropy_nats(t.values()) for t in prior.tables]
    want = left_to_right(parts)
    # A compensated sum of these parts reads a different last bit.
    assert math.fsum(parts) != want
    assert prior.entropy_nats() == want


def test_dirichlet_draws_normalize_left_to_right():
    for seed in (2, 4, 5):
        rng = random.Random(seed)
        es = [-math.log(max(rng.random(), 1e-300)) for _ in range(6)]
        total = left_to_right(es)
        assert math.fsum(es) != total
        assert _dirichlet(random.Random(seed), 6) == [e / total for e in es]
