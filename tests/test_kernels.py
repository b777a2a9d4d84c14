"""Histogram-domain kernels against the sequence-domain oracles."""

import random
from fractions import Fraction

import pytest

import oracles
from privlens import (
    BOT,
    EnumerationBudgetError,
    RecordUniverse,
    change_histogram_pairs,
    change_sequence_pairs,
    matrix_channel,
    uniform_universe,
)
from privlens.audit import tightness_pk
from gen import random_channel

SYMBOLS = (BOT, "a", "b", "c")


def per_individual_universe(rng, n_max=5, max_sequences=200):
    """Individuals with their own alphabets: shuffled non-empty subsets of
    SYMBOLS, some without BOT, some of one symbol."""
    while True:
        n = rng.randint(1, n_max)
        alphabets = []
        for _ in range(n):
            alpha = [s for s in SYMBOLS if rng.random() < 0.6] or [rng.choice(SYMBOLS)]
            rng.shuffle(alpha)
            alphabets.append(tuple(alpha))
        u = RecordUniverse(tuple(alphabets))
        if u.sequence_count() <= max_sequences:
            return u


def test_achievable_histograms_match_the_sequence_oracle():
    rng = random.Random(20)
    for _ in range(80):
        u = per_individual_universe(rng)
        assert u.achievable_histograms() == oracles.achievable_histograms(u)


def test_sequences_with_histogram_match_the_sequence_oracle():
    rng = random.Random(21)
    for _ in range(40):
        u = per_individual_universe(rng)
        hists = list(u.achievable_histograms())
        hists.append(tuple(u.n + 1 for _ in u.pooled_alphabet))
        for h in hists:
            assert u.sequences_with_histogram(h) == oracles.sequences_with_histogram(u, h)


def test_change_histogram_pairs_match_the_sequence_oracle_for_every_k():
    rng = random.Random(22)
    for _ in range(60):
        u = per_individual_universe(rng, max_sequences=120)
        for k in range(1, u.n + 2):
            assert change_histogram_pairs(u, k) == oracles.change_histogram_pairs(u, k)


def test_change_histogram_pairs_match_on_shared_alphabets():
    for n in range(1, 6):
        u = uniform_universe(n, (BOT, "a", "b"))
        for k in range(1, n + 2):
            assert change_histogram_pairs(u, k) == oracles.change_histogram_pairs(u, k)


def test_kernel_budgets_name_their_stage():
    u = uniform_universe(3, (BOT, "a", "b"))
    with pytest.raises(EnumerationBudgetError) as exc:
        change_histogram_pairs(u, 1, budget=5)
    assert exc.value.stage == "change_histogram_pairs"
    assert exc.value.cardinality == 9
    assert "change_histogram_pairs" in str(exc.value)
    with pytest.raises(EnumerationBudgetError) as exc:
        u.achievable_histograms(budget=5)
    assert exc.value.stage == "achievable_histograms"
    # 3 steps for the first individual, 3 x 3 for the second.
    assert exc.value.cardinality == 12


def test_cached_histograms_still_charge_the_budget():
    u = uniform_universe(3, (BOT, "a", "b"))
    u.achievable_histograms()
    with pytest.raises(EnumerationBudgetError) as exc:
        u.achievable_histograms(budget=20)
    assert exc.value.cardinality == 3 + 9 + 18


def first_realizing_pair(u, k, num_hist, den_hist):
    for s_num, s_den in change_sequence_pairs(u, k):
        if (u.to_histogram(s_num) == num_hist
                and u.to_histogram(s_den) == den_hist):
            return list(s_num), list(s_den)
    return None


def test_tightness_pair_is_the_first_sorted_sequence_pair():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        u = per_individual_universe(rng, n_max=4, max_sequences=60)
        if len(u.achievable_histograms()) < 2:
            continue
        ch = random_channel(rng, u)
        for k in range(1, u.n + 1):
            t = tightness_pk(ch, k)
            want = first_realizing_pair(u, k, t.scan.num_hist, t.scan.den_hist)
            got = (t.prior_summary["numerator_sequence"],
                   t.prior_summary["denominator_sequence"])
            assert got == want
        checked += 1


def test_tightness_pair_follows_string_order_where_bot_sorts_last():
    # The witness is numerator a=1 against denominator a=0. In alphabet
    # order the first realization of a=1 is (BOT, a); sorted() compares the
    # strings, and "a" < BOT, so the reported pair starts with (a, BOT).
    u = uniform_universe(2, (BOT, "a"))
    ch = matrix_channel(u, ("x", "y", "z"), {
        (0,): ("1/100", "99/200", "99/200"),
        (1,): ("8/10", "1/10", "1/10"),
        (2,): ("1/100", "99/200", "99/200"),
    })
    t = tightness_pk(ch, 1)
    assert (t.scan.num_hist, t.scan.den_hist) == ((1,), (0,))
    assert t.scan.ratio == Fraction(80)
    assert t.prior_summary["numerator_sequence"] == ["a", BOT]
    assert t.prior_summary["denominator_sequence"] == [BOT, BOT]
    assert t.target == 0
    assert (["a", BOT], [BOT, BOT]) == first_realizing_pair(u, 1, (1,), (0,))
