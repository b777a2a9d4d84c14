import math
import random
from fractions import Fraction

import pytest

from privlens import (
    AuditError,
    BOT,
    CompositionError,
    EnumerationBudgetError,
    EpochModel,
    LeakageError,
    certify_composition,
    direct_epoch_max_mi,
    dp_epsilon,
    epoch_leakage,
    equal_epoch_reduction,
    geometric_counting_channel,
    independent_prior,
    product_channel,
    randomized_response_channel,
    uniform_universe,
)

from gen import random_channel, random_prior, random_universe

HALF = Fraction(1, 2)


def one_record():
    u = uniform_universe(1, (BOT, "a"))
    prior = independent_prior(u, [{BOT: HALF, "a": HALF}])
    return u, prior


# ---------------------------------------------------------------------------
# product channel
# ---------------------------------------------------------------------------


def test_product_rows_are_exact_tensor_products():
    u, _ = one_record()
    rr = randomized_response_channel(u, HALF)
    both = product_channel([rr, rr])
    assert both.outcomes == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    assert both.row((0,)) == (
        Fraction(9, 16),
        Fraction(3, 16),
        Fraction(3, 16),
        Fraction(1, 16),
    )


def test_two_randomized_response_releases_square_the_level():
    u, _ = one_record()
    rr = randomized_response_channel(u, HALF)
    assert dp_epsilon(product_channel([rr, rr])).ratio == 9


def test_product_epsilon_is_subadditive():
    rng = random.Random(83)
    for _ in range(12):
        u = random_universe(rng)
        parts = [random_channel(rng, u, out_range=(2, 3)) for _ in range(2)]
        total = dp_epsilon(product_channel(parts)).nats
        summed = sum(dp_epsilon(c).nats for c in parts)
        assert total <= summed + 1e-9


def test_product_rejects_mixed_universes():
    u1 = uniform_universe(1, (BOT, "a"))
    u2 = uniform_universe(2, (BOT, "a"))
    with pytest.raises(CompositionError):
        product_channel([
            randomized_response_channel(u1, HALF),
            randomized_response_channel(u2, HALF),
        ])
    with pytest.raises(CompositionError):
        product_channel([])


def test_product_budget_counts_joint_cardinality():
    u = uniform_universe(2, (BOT, "a"))
    geo = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    with pytest.raises(EnumerationBudgetError) as exc:
        product_channel([geo, geo, geo], budget=50)
    assert exc.value.cardinality == 27 * 3


# ---------------------------------------------------------------------------
# composition certificates
# ---------------------------------------------------------------------------


def test_certify_composition_at_the_measured_levels():
    u = uniform_universe(2, (BOT, "a"))
    geo = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    rr = randomized_response_channel(u, HALF)
    levels = [dp_epsilon(geo).ratio, dp_epsilon(rr).ratio]
    v = certify_composition([geo, rr], 1, exp_epsilons=levels)
    assert v.satisfied
    assert v.conclusive
    assert v.bound_ratio == levels[0] * levels[1]
    assert all(row["satisfied"] for row in v.details["per_component"])
    assert not v.notes


def test_certify_composition_flags_an_overshooting_component():
    u, _ = one_record()
    rr = randomized_response_channel(u, HALF)
    v = certify_composition([rr, rr], 1, exp_epsilons=[Fraction(2), Fraction(9)])
    assert any("exceeds its own level" in n for n in v.notes)
    assert not v.details["per_component"][0]["satisfied"]


def test_certify_composition_epsilon_spelling_and_errors():
    u, _ = one_record()
    rr = randomized_response_channel(u, HALF)
    v = certify_composition([rr, rr], 1, epsilons=[math.log(3)] * 2)
    assert v.satisfied
    with pytest.raises(CompositionError):
        certify_composition([rr], 1)
    with pytest.raises(CompositionError):
        certify_composition([rr], 1, epsilons=[1.0], exp_epsilons=[Fraction(3)])
    with pytest.raises(CompositionError):
        certify_composition([rr, rr], 1, exp_epsilons=[Fraction(3)])


@pytest.mark.parametrize("levels, error, message", [
    ({"exp_epsilons": [0, Fraction(3)]}, AuditError, "level must be positive"),
    ({"epsilons": [1.0, math.nan]}, AuditError,
     "epsilon must be a number, got nan"),
    ({"exp_epsilons": [None, 3]}, CompositionError,
     r"exp_epsilons\[0\] must be a level, got None"),
], ids=["zero", "nan", "null"])
def test_certify_composition_reads_every_level_before_the_first_scan(
        levels, error, message):
    # Budget 1 would stop the first component's scan.
    u = uniform_universe(2, (BOT, "a"))
    geo = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    with pytest.raises(error, match=message):
        certify_composition([geo, geo], 1, budget=1, **levels)


# ---------------------------------------------------------------------------
# independent epochs
# ---------------------------------------------------------------------------


def test_epoch_model_validation():
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    with pytest.raises(CompositionError):
        EpochModel(())
    u2 = uniform_universe(2, (BOT, "a"))
    prior2 = independent_prior(
        u2, [{BOT: HALF, "a": HALF}, {BOT: HALF, "a": HALF}]
    )
    with pytest.raises(CompositionError):
        EpochModel(((prior2, rr),))
    rr2 = randomized_response_channel(u2, HALF)
    with pytest.raises(CompositionError):
        EpochModel(((prior, rr), (prior2, rr2)))


def test_two_equal_epochs_multiply_exactly():
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    model = EpochModel(((prior, rr), (prior, rr)))
    rep = epoch_leakage(model, 0)
    assert [q.ratio for q in rep.per_epoch] == [Fraction(3, 2), Fraction(3, 2)]
    assert rep.total_ratio == Fraction(9, 4)
    assert abs(rep.total_bits - math.log2(2.25)) < 1e-12
    direct = direct_epoch_max_mi(model, 0)
    assert direct.ratio == Fraction(9, 4)
    assert set(direct.witness) == {"records_by_epoch", "outcomes_by_epoch"}
    assert direct.witness["records_by_epoch"] == [["a"], ["a"]]
    assert direct.witness["outcomes_by_epoch"] == ["1", "1"]


def test_mixed_epochs_multiply_exactly():
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    geo = geometric_counting_channel(u, "a", ratio=HALF)
    model = EpochModel(((prior, rr), (prior, geo)))
    rep = epoch_leakage(model, 0)
    assert rep.total_ratio == Fraction(3, 2) * Fraction(4, 3)
    assert direct_epoch_max_mi(model, 0).ratio == Fraction(2)


def test_epoch_additivity_on_random_instances():
    rng = random.Random(149)
    for _ in range(10):
        u = random_universe(rng, n_max=2, shared=True)
        epochs = []
        for _ in range(2):
            epochs.append(
                (random_prior(rng, u), random_channel(rng, u, out_range=(2, 3)))
            )
        model = EpochModel(tuple(epochs))
        tgt = rng.randrange(u.n)
        rep = epoch_leakage(model, tgt)
        direct = direct_epoch_max_mi(model, tgt)
        assert abs(rep.total_nats - direct.nats) < 1e-9


@pytest.mark.parametrize("target", [[], 1])
def test_composition_cross_checks_reject_bad_targets(target):
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    with pytest.raises(LeakageError):
        direct_epoch_max_mi(EpochModel(((prior, rr), (prior, rr))), target)
    with pytest.raises(LeakageError):
        equal_epoch_reduction(prior, [rr, rr], target)


def test_epoch_budget_counts_the_product_space():
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    model = EpochModel(((prior, rr), (prior, rr)))
    with pytest.raises(EnumerationBudgetError) as exc:
        direct_epoch_max_mi(model, 0, budget=10)
    assert exc.value.cardinality == 16


# ---------------------------------------------------------------------------
# equal records across epochs
# ---------------------------------------------------------------------------


def test_equal_epochs_reduce_to_the_product_channel():
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    out = equal_epoch_reduction(prior, [rr, rr], 0)
    assert out["via_product_channel"].ratio == Fraction(9, 5)
    assert out["direct_ratio"] == Fraction(9, 5)
    assert out["agree"]


def test_equal_epochs_leak_differently_from_redrawn_epochs():
    # Same mechanisms, same marginals: re-observed fixed records give 9/5
    # while independently redrawn records give 9/4.
    u, prior = one_record()
    rr = randomized_response_channel(u, HALF)
    fixed = equal_epoch_reduction(prior, [rr, rr], 0)["direct_ratio"]
    redrawn = epoch_leakage(
        EpochModel(((prior, rr), (prior, rr))), 0
    ).total_ratio
    assert fixed == Fraction(9, 5)
    assert redrawn == Fraction(9, 4)
    assert fixed != redrawn


def test_equal_epoch_reduction_on_random_instances():
    rng = random.Random(229)
    for _ in range(10):
        u = random_universe(rng, n_max=2, shared=True)
        prior = random_prior(rng, u)
        channels = [random_channel(rng, u, out_range=(2, 3)) for _ in range(2)]
        out = equal_epoch_reduction(prior, channels, 0)
        assert out["agree"]
