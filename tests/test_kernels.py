"""Histogram-domain kernels against the sequence-domain oracles."""

import collections
import functools
import gc
import itertools
import math
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest

import oracles
import privlens
from privlens import audit as audit_module
from privlens import mechanism as mechanism_module
from privlens import prior as prior_module
from privlens import (
    BOT,
    AuditError,
    DEFAULT_ETA,
    TOL,
    Channel,
    EnumerationBudgetError,
    ChannelError,
    EpochModel,
    FamilyParams,
    JointPrior,
    JointTables,
    LeakageError,
    PriorError,
    RecordUniverse,
    check_membership,
    change_histogram_pairs,
    geometric_counting_channel,
    lipschitz_ratio,
    change_sequence_pairs,
    dataset_distribution,
    direct_epoch_max_mi,
    equal_epoch_reduction,
    extremal_pair_prior,
    extremal_pdelta_prior,
    histogram_masses,
    independent_prior,
    inferential_eps,
    leakage_report,
    matrix_channel,
    max_mi,
    max_rel_entropy,
    mi,
    necessary_pdelta,
    normalize_target,
    output_entropy,
    prior_from_flat,
    product_channel,
    randomized_response_channel,
    ratios_agree,
    sample_prior,
    sigma,
    sufficient_nk,
    uniform_universe,
    worstcase_sup,
)
from privlens.audit import (
    _check_largest_sample,
    _exceeds,
    _extremal_tables,
    _pair_classes,
    _pdelta_classes,
    _rows_bound,
    _sampled_members,
    _table_max_mi,
    tightness_pk,
)
from privlens.leakage import MaxMiPlan
from privlens.mechanism import RowViews
from privlens.probability import float_or_inf
from privlens.prior import (
    HistogramPlan,
    MemberSampler,
    _pair_groups,
    block_cells,
    draw_member,
    extremal_pair_table,
    extremal_pair_violations,
    extremal_pdelta_table,
    histogram_cells,
    layout_prior,
    pdelta_branches,
    support_cells,
)
from gen import random_channel

SYMBOLS = (BOT, "a", "b", "c")


def random_alphabet(rng):
    """A shuffled non-empty subset of SYMBOLS, maybe without BOT, maybe of
    one symbol."""
    alpha = [s for s in SYMBOLS if rng.random() < 0.6] or [rng.choice(SYMBOLS)]
    rng.shuffle(alpha)
    return tuple(alpha)


def per_individual_universe(rng, n_max=5, max_sequences=200):
    """Individuals with their own random alphabets."""
    while True:
        n = rng.randint(1, n_max)
        u = RecordUniverse(tuple(random_alphabet(rng) for _ in range(n)))
        if u.sequence_count() <= max_sequences:
            return u


def test_achievable_histograms_match_the_sequence_oracle():
    rng = random.Random(20)
    for _ in range(80):
        u = per_individual_universe(rng)
        assert u.achievable_histograms() == oracles.achievable_histograms(u)


def test_to_histogram_is_a_plain_symbol_count():
    rng = random.Random(19)
    for _ in range(40):
        u = per_individual_universe(rng)
        for seq in oracles.iter_sequences(u):
            want = oracles.histogram(u, seq)
            assert u.to_histogram(seq) == want
            assert u.to_histogram(seq, validate=False) == want


def test_sequences_with_histogram_match_the_sequence_oracle():
    rng = random.Random(21)
    for _ in range(40):
        u = per_individual_universe(rng)
        hists = list(u.achievable_histograms())
        hists.append(tuple(u.n + 1 for _ in u.pooled_alphabet))
        for h in hists:
            assert u.sequences_with_histogram(h) == oracles.sequences_with_histogram(u, h)


def test_realizations_walk_sorted_symbols_in_sorted_order():
    # With each position's symbols sorted, as the tightness walk takes them,
    # the realizations come one at a time in sorted (string) order, where
    # BOT sorts after letters.
    rng = random.Random(21)
    for _ in range(40):
        u = per_individual_universe(rng)
        suffix = u._reachable_codes(reversed(u.alphabets), None, "walk")[0]
        alphabets = [sorted(a) for a in u.alphabets]
        for h in u.achievable_histograms():
            walk = u._realizations(u.encode_histogram(h), suffix[::-1],
                                   alphabets)
            assert list(walk) == sorted(oracles.sequences_with_histogram(u, h))


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


def test_change_histogram_pairs_charge_every_record_pair_past_the_first_layer():
    # Layers of 1, 9 and 36 states, each charged 3 x 3 record pairs; the
    # third holds the first states that have used both changes.
    u = uniform_universe(4, (BOT, "a", "b"))
    with pytest.raises(EnumerationBudgetError) as exc:
        change_histogram_pairs(u, 2, budget=400)
    assert exc.value.stage == "change_histogram_pairs"
    assert exc.value.cardinality == 9 + 81 + 324


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


# ---------------------------------------------------------------------------
# Joint tables from (records key, histogram) masses
# ---------------------------------------------------------------------------

QUANTITIES = (max_mi, mi, max_rel_entropy, inferential_eps)


def _weights(rng, m, exact):
    """m nonnegative weights summing to one, some of them zero. Exact
    weights are Fractions; otherwise floats, each kept or turned into the
    Fraction of its binary value, so masses of both types meet."""
    if exact:
        raw = [rng.randint(0, 4) for _ in range(m)]
        if not any(raw):
            raw[rng.randrange(m)] = 1
        return [Fraction(w, sum(raw)) for w in raw]
    raw = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(m)]
    if not any(raw):
        raw[rng.randrange(m)] = 1.0
    s = sum(raw)
    return [w / s if rng.random() < 0.8 else Fraction(w / s) for w in raw]


def block_prior(rng, exact, max_support=200):
    """1-3 blocks of 1-3 individuals each, the indices shuffled across
    blocks, over per-individual alphabets drawn from SYMBOLS."""
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        n = sum(sizes)
        u = RecordUniverse(tuple(random_alphabet(rng) for _ in range(n)))
        if u.sequence_count() <= max_support:
            break
    order = list(range(n))
    rng.shuffle(order)
    blocks, tables = [], []
    for size in sizes:
        block = tuple(sorted(order[:size]))
        del order[:size]
        keys = list(itertools.product(*(u.alphabets[i] for i in block)))
        blocks.append(block)
        tables.append(dict(zip(keys, _weights(rng, len(keys), exact))))
    return JointPrior(u, tuple(blocks), tuple(tables))


def block_channel(rng, u, exact):
    if not exact:
        return random_channel(rng, u, out_range=(1, 4), zero_prob=0.3)
    n_out = rng.randint(1, 4)
    rows = {h: tuple(_weights(rng, n_out, True))
            for h in u.achievable_histograms()}
    return Channel(u, tuple(range(n_out)), rows)


def block_target(rng, n):
    return tuple(sorted(rng.sample(range(n), min(n, rng.randint(1, 3)))))


def close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(b))


def assert_quantities_agree(got, want, exact):
    if exact:
        assert got == want
        return
    assert close(got.nats, want.nats)
    assert (got.ratio is None) == (want.ratio is None)
    if got.ratio is not None:
        assert ratios_agree(got.ratio, want.ratio)


def assert_tables_agree(got, want, exact):
    assert list(got.p_x) == list(want.p_x)
    assert list(got.rows) == list(want.rows)
    for xv, row in want.rows.items():
        assert [w is None for w in got.rows[xv]] == [w is None for w in row]
    if exact:
        assert got.p_x == want.p_x
        assert got.p_r == want.p_r
        assert got.rows == want.rows
    else:
        for xv in want.p_x:
            assert close(float(got.p_x[xv]), float(want.p_x[xv]))
        for a, b in zip(got.p_r, want.p_r):
            assert close(float(a), float(b))
        for xv, row in want.rows.items():
            for a, b in zip(got.rows[xv], row):
                assert b is None or close(float(a), float(b))
    for q in QUANTITIES:
        assert_quantities_agree(q(None, None, None, tables=got),
                                q(None, None, None, tables=want), exact)


@pytest.mark.parametrize("exact", [True, False], ids=["Fraction", "float"])
def test_joint_tables_match_the_sequence_oracle(exact):
    rng = random.Random(24 if exact else 25)
    for _ in range(60):
        prior = block_prior(rng, exact)
        ch = block_channel(rng, prior.universe, exact)
        tgt = block_target(rng, prior.universe.n)
        got = JointTables(prior, ch, tgt)
        if exact:
            assert all(isinstance(w, Fraction) for row in got.rows.values()
                       for w in row if w is not None)
        assert_tables_agree(got, oracles.joint_tables(prior, ch, tgt), exact)


@pytest.mark.parametrize("exact", [True, False], ids=["Fraction", "float"])
def test_dataset_distribution_matches_the_sequence_oracle(exact):
    rng = random.Random(26 if exact else 27)
    for _ in range(60):
        prior = block_prior(rng, exact)
        got = dataset_distribution(prior)
        want = oracles.dataset_distribution(prior)
        assert set(got) == set(want)
        for h, m in want.items():
            if exact:
                assert got[h] == m
            else:
                assert close(float(got[h]), float(m))


# (rational prior, rational channels) per case, and the case's seed offset:
# the rational and the float path, then the two mixed ones, which keep the
# Fraction and float loops.
MIXES = pytest.mark.parametrize("mix", [
    (True, True, 0), (False, False, 1), (True, False, 12), (False, True, 13),
], ids=["Fraction", "float", "rational-prior-float-channel",
        "float-prior-rational-channel"])


@MIXES
def test_direct_epoch_max_mi_matches_the_sequence_oracle(mix):
    prior_exact, channel_exact, seed = mix
    exact = prior_exact and channel_exact
    rng = random.Random(28 + seed)
    for _ in range(30):
        prior = block_prior(rng, prior_exact, max_support=24)
        u = prior.universe
        second = JointPrior(u, prior.blocks, tuple(
            dict(zip(t, _weights(rng, len(t), prior_exact)))
            for t in prior.tables
        ))
        epochs = ((prior, block_channel(rng, u, channel_exact)),
                  (second, block_channel(rng, u, channel_exact)))
        tgt = block_target(rng, u.n)
        assert_quantities_agree(direct_epoch_max_mi(EpochModel(epochs), tgt),
                                oracles.direct_epoch_max_mi(epochs, tgt),
                                exact)


@MIXES
def test_equal_epoch_reduction_matches_the_sequence_oracle(mix):
    prior_exact, channel_exact, seed = mix
    exact = prior_exact and channel_exact
    rng = random.Random(30 + seed)
    for _ in range(30):
        prior = block_prior(rng, prior_exact, max_support=60)
        u = prior.universe
        channels = [block_channel(rng, u, channel_exact) for _ in range(2)]
        tgt = block_target(rng, u.n)
        got = equal_epoch_reduction(prior, channels, tgt)
        want = oracles.equal_epoch_direct(prior, channels, tgt)
        if exact:
            assert got["direct_ratio"] == want.ratio
            assert got["direct_nats"] == want.nats
            assert got["agree"]
        else:
            assert ratios_agree(got["direct_ratio"], want.ratio)
            assert close(got["direct_nats"], want.nats)


def test_float_masses_meet_float_rows_bit_for_bit():
    # The same (records key, histogram) cells, once against the Fraction
    # rows (float * Fraction) and once through JointTables, which hands
    # float masses a float copy of each row.
    rng = random.Random(32)
    floats = 0
    for _ in range(40):
        prior = block_prior(rng, False)
        ch = block_channel(rng, prior.universe, True)
        tgt = block_target(rng, prior.universe.n)
        masses = histogram_masses(prior, tgt)
        floats += sum(isinstance(m, float) for m in masses.values())
        want = oracles.tables_from_cells(
            ((xv, m, ch.rows[h]) for (xv, h), m in masses.items()),
            ch.outcomes,
        )
        got = JointTables(prior, ch, tgt)
        assert repr(got.p_x) == repr(want.p_x)
        assert repr(got.p_r) == repr(want.p_r)
        assert repr(got.rows) == repr(want.rows)
    assert floats > 0


def test_histogram_plan_matches_the_dict_convolution():
    # Same keys in the same order and masses with the same bits, also when
    # one plan serves several priors with its layout and cells.
    rng = random.Random(35)
    for exact in (True, False):
        for _ in range(80):
            prior = block_prior(rng, exact)
            tgt = block_target(rng, prior.universe.n)
            want = oracles.histogram_masses(prior, tgt)
            assert repr(histogram_masses(prior, tgt)) == repr(want)
            cells = [list(t) for t in prior.tables]
            plan = HistogramPlan(prior.universe, prior.blocks, tgt, cells)
            for _ in range(2):
                other = JointPrior(prior.universe, prior.blocks, tuple(
                    dict(zip(keys, _positive_weights(rng, len(keys), exact)))
                    for keys in cells))
                got = dict(zip(plan.keys, plan.masses(
                    t.values() for t in other.tables)))
                assert repr(got) == repr(oracles.histogram_masses(other, tgt))


def _positive_weights(rng, m, exact):
    if exact:
        raw = [rng.randint(1, 4) for _ in range(m)]
        return [Fraction(w, sum(raw)) for w in raw]
    raw = [rng.random() + 0.01 for _ in range(m)]
    return [w / sum(raw) for w in raw]


def test_histogram_masses_keep_the_support_mass_types():
    # iter_support starts each mass at Fraction(1): int cells become
    # Fractions, float cells make the mass a float.
    u = uniform_universe(2, (BOT, "a"))
    for tables in (
        ({(BOT,): 1}, {("a",): 1}),
        ({(BOT,): 1}, {(BOT,): 0.25, ("a",): 0.75}),
        ({(BOT,): 0.5, ("a",): Fraction(1, 2)}, {("a",): 1}),
    ):
        prior = JointPrior(u, ((0,), (1,)), tables)
        for target in ((), (0,), (0, 1)):
            got = histogram_masses(prior, target)
            want = {}
            for seq, p in prior.iter_support():
                cell = (tuple(seq[i] for i in target), u.to_histogram(seq))
                want[cell] = want.get(cell, 0) + p
            assert got == want
            assert {c: type(m) for c, m in got.items()} == {
                c: type(m) for c, m in want.items()
            }


# ---------------------------------------------------------------------------
# Exact tables and randomized-response rows on integers
# ---------------------------------------------------------------------------


def assert_same_bits(got, want):
    """Same values, types and order: equal reprs."""
    assert repr(got.p_x) == repr(want.p_x)
    assert repr(got.p_r) == repr(want.p_r)
    assert repr(got.rows) == repr(want.rows)


def test_randomized_response_rows_match_the_fraction_oracle():
    rng = random.Random(33)
    symbols = (BOT, "a", "b", "c")
    for m in (2, 3, 4):
        for n in range(1, 6):
            alphabet = rng.sample(symbols, m)
            u = uniform_universe(n, alphabet)
            for keep in (Fraction(rng.randint(0, 7), 7), "0.35"):
                got = randomized_response_channel(u, keep).rows
                assert repr(got) == repr(oracles.randomized_response_rows(u, keep))


@pytest.mark.parametrize("alphabet", [(BOT, "a", "b"), ("a", "b", "c"),
                                      ("a", BOT, "b", "c")])
def test_randomized_response_rows_match_the_oracle_at_scan_sizes(alphabet):
    for n in (6, 7, 8):
        u = uniform_universe(n, alphabet)
        for keep in (Fraction(0), Fraction(1), Fraction(3, 7)):
            got = randomized_response_channel(u, keep).rows
            assert repr(got) == repr(oracles.randomized_response_rows(u, keep))


def test_randomized_response_rows_match_the_oracle_on_one_symbol():
    for alphabet in ((BOT,), ("a",)):
        for n in (1, 4, 8):
            u = uniform_universe(n, alphabet)
            for keep in (Fraction(0), Fraction(1), Fraction(3, 7), 0.35):
                got = randomized_response_channel(u, keep).rows
                assert repr(got) == repr(oracles.randomized_response_rows(u, keep))


def test_randomized_response_rows_commute_with_relabelling():
    # row(pi h)[pi o] == row(h)[o] for every permutation pi of the alphabet,
    # BOT moved as any other symbol.
    for n, alphabet in ((5, (BOT, "a", "b")), (4, ("a", BOT, "b", "c")),
                        (4, ("a", "b", "c"))):
        u = uniform_universe(n, alphabet)

        def relabel(hist, pi):
            counts = dict(zip(u.pooled_alphabet, hist))
            counts[BOT] = n - sum(hist)
            moved = {pi[s]: counts.get(s, 0) for s in alphabet}
            return tuple(moved[s] for s in u.pooled_alphabet)

        for keep in (Fraction(0), Fraction(1), Fraction(3, 7)):
            ch = randomized_response_channel(u, keep)
            for image in itertools.permutations(alphabet):
                pi = dict(zip(alphabet, image))
                for h, row in ch.rows.items():
                    moved = ch.row(relabel(h, pi))
                    for o, q in zip(u.achievable_histograms(), row):
                        j = ch.outcome_index(u.histogram_key(relabel(o, pi)))
                        assert moved[j] == q


def test_randomized_response_float_keep_keeps_its_bits():
    for n, alphabet in ((3, (BOT, "a")), (4, ("a", BOT, "b")),
                        (2, ("c", "b", BOT, "a"))):
        u = uniform_universe(n, alphabet)
        got = randomized_response_channel(u, 0.35).rows
        want = oracles.randomized_response_rows(u, 0.35)
        assert any(isinstance(q, float) for row in got.values() for q in row)
        assert repr(got) == repr(want)


def test_geometric_integer_rows_match_the_fraction_oracle():
    # Mixed alphabets, every count from 0 to the cap, max_count at and above
    # the cap, several ratios: the same rows (values, types, order) as the
    # Fraction formulas, one d for every row, and the same scans.
    rng = random.Random(34)
    ratios = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 8), Fraction(7, 8),
              Fraction(1, 9), Fraction(99, 100), "2/7", "0.25")
    boundary = set()
    for _ in range(12):
        while True:
            u = per_individual_universe(rng, n_max=4)
            if u.pooled_alphabet:
                break
        sym = rng.choice(u.pooled_alphabet)
        t = u.pooled_alphabet.index(sym)
        cap = max(h[t] for h in u.achievable_histograms())
        for ratio in ratios:
            for max_count in (None, cap, cap + 1, cap + 3):
                ch = geometric_counting_channel(u, sym, ratio=ratio,
                                                max_count=max_count)
                want = oracles.geometric_counting_rows(u, sym, ratio, max_count)
                assert repr(ch.rows) == repr(want), (u, sym, ratio, max_count)
                assert len({d for _, d in ch._dense.values()}) == 1
                m = len(ch.outcomes) - 1
                boundary |= {(h[t] == 0, h[t] == m) for h in ch.rows}
            assert_scans_match(ch)
    assert boundary == {(True, False), (False, True), (False, False)}


def test_geometric_float_rows_keep_their_bits():
    u = RecordUniverse(((BOT, "a"), ("a", "b"), (BOT, "a", "b")))
    for ratio in (0.3, 0.999):
        for max_count in (None, 5):
            ch = geometric_counting_channel(u, "a", ratio=ratio,
                                            max_count=max_count)
            want = oracles.geometric_counting_rows(u, "a", ratio, max_count)
            assert repr(ch.rows) == repr(want)
    ch = geometric_counting_channel(u, "b", epsilon=0.7)
    assert repr(ch.rows) == repr(
        oracles.geometric_counting_rows(u, "b", math.exp(-0.7)))


def _mixed_channel(rng, u, ints=False):
    """A rational channel, or with ints a deterministic channel of int
    entries, with one row turned into floats."""
    ch = block_channel(rng, u, True)
    if ints:
        n_out = len(ch.outcomes)
        ch = Channel(u, ch.outcomes, {
            h: tuple(int(j == k) for j in range(n_out))
            for h, k in zip(ch.rows, (rng.randrange(n_out) for _ in ch.rows))})
    rows = dict(ch.rows)
    h = rng.choice(sorted(rows))
    rows[h] = tuple(float(q) for q in rows[h])
    return Channel(u, ch.outcomes, rows)


def test_product_channel_matches_the_fraction_oracle():
    # Rational, float and mixed components, one to three of them: the same
    # rows (values, types, order) as the Fraction loop, and the same
    # k-change scans as a channel built from those rows.
    rng = random.Random(66)
    make = {
        "rational": lambda u: block_channel(rng, u, True),
        "float": lambda u: block_channel(rng, u, False),
        "mixed": lambda u: _mixed_channel(rng, u),
        "ints": lambda u: _mixed_channel(rng, u, ints=True),
    }
    combos = [("rational",), ("rational", "rational"),
              ("rational", "rational", "rational"), ("float", "float"),
              ("rational", "float"), ("mixed", "rational"),
              ("rational", "mixed", "float"), ("ints",), ("ints", "ints")]
    for _ in range(6):
        for combo in combos:
            u = per_individual_universe(rng, n_max=3, max_sequences=40)
            channels = [make[kind](u) for kind in combo]
            got = product_channel(channels)
            rows = oracles.product_channel_rows(channels)
            assert repr(got.rows) == repr(rows), combo
            want = Channel(u, got.outcomes, rows)
            for k in range(1, u.n + 1):
                assert repr(lipschitz_ratio(got, k)) == repr(
                    lipschitz_ratio(want, k)), combo


def test_integer_rows_share_the_constructor_messages():
    u = uniform_universe(1, (BOT, "a"))
    lo, hi = u.achievable_histograms()
    good = ([1, 1], 2)

    def rejects(dense, message):
        # The same message from the integer rows and from their Fractions.
        with pytest.raises(ChannelError) as exc:
            Channel.from_numerators(u, (0, 1), dense)
        assert str(exc.value) == message
        rows = {h: tuple(Fraction(a, d) for a in nums)
                for h, (nums, d) in dense.items()}
        with pytest.raises(ChannelError) as exc:
            Channel(u, (0, 1), rows)
        assert str(exc.value) == message

    rejects({lo: good, hi: ([3, -1], 2)}, "negative probability in row (1,)")
    rejects({lo: good, hi: ([5 * 10**7, 5 * 10**7 + 1], 10**8)},
            "row (1,) sums to 1.00000001, expected 1")
    rejects({lo: good, hi: ([1, 1, 0], 2)},
            "row (1,) has 3 entries for 2 outcomes")
    rejects({lo: good}, "no row for achievable histogram (1,)")
    rejects({lo: good, hi: good, (2,): good},
            "row for unachievable histogram (2,)")
    near = ([5 * 10**9, 5 * 10**9 + 1], 10**10)
    ch = Channel.from_numerators(u, (0, 1), {lo: good, hi: near})
    assert ch.rows[hi] == (Fraction(1, 2), Fraction(5 * 10**9 + 1, 10**10))
    assert ch._dense[hi] == near
    for d in (0, -2, 2.0, True):
        with pytest.raises(ChannelError) as exc:
            Channel.from_numerators(u, (0, 1), {lo: good, hi: ([1, 1], d)})
        assert str(exc.value) == (
            f"row (1,) has denominator {d!r}, expected a positive integer")
    for outcomes, message in (((), "channel needs at least one outcome"),
                              ((0, 0), "outcome labels repeat")):
        with pytest.raises(ChannelError) as exc:
            Channel.from_numerators(u, outcomes, {lo: good, hi: good})
        assert str(exc.value) == message


def test_integer_rows_read_as_a_dict_of_fractions():
    u = uniform_universe(4, (BOT, "a", "b"))
    keep = Fraction(2, 5)
    want = oracles.randomized_response_rows(u, keep)
    hists = u.achievable_histograms()
    ch = randomized_response_channel(u, keep)
    rows = ch.rows
    assert rows._rows == {}
    assert len(rows) == len(want) and list(rows) == list(want) == list(hists)
    assert hists[4] in rows and (9, 9) not in rows
    assert rows[hists[3]] == want[hists[3]]
    # Only a read builds a row.
    assert list(rows._rows) == [hists[3]]
    # A row read twice is one tuple, and equal entries share one Fraction.
    assert rows[hists[3]] is rows[hists[3]]
    equal = [(x, y) for x in rows[hists[0]] for y in rows[hists[1]] if x == y]
    assert equal and all(x is y for x, y in equal)
    assert ch.row(hists[2]) == want[hists[2]]
    with pytest.raises(KeyError):
        rows[(9, 9)]
    with pytest.raises(ChannelError):
        ch.row((9, 9))
    assert rows.get((9, 9)) is None
    assert dict(rows) == want and rows == want and want == rows
    assert rows != {**want, hists[0]: want[hists[1]]}
    assert list(rows.items()) == list(want.items())
    assert repr(rows) == repr(want)
    assert ch.describe()["row_count"] == len(want)
    with pytest.raises(TypeError):
        rows[hists[0]] = want[hists[0]]


def test_a_k_change_certificate_builds_only_the_witness_rows():
    u = uniform_universe(6, (BOT, "a", "b"))
    for ch in (randomized_response_channel(u, Fraction(1, 3)),
               geometric_counting_channel(u, "a", ratio=Fraction(1, 3))):
        verdict = audit_module.certify_pk(ch, 2, exp_epsilon=10)
        scan = lipschitz_ratio(ch, 2)
        assert verdict.measured_ratio == scan.ratio
        assert set(ch.rows._rows) == {scan.num_hist, scan.den_hist}


def _tables_cases():
    """(prior, channel, target, index of an outcome with zero mass or None)
    for cases the integer path could get wrong."""
    u = uniform_universe(3, (BOT, "a", "b"))
    prior = JointPrior(u, ((0, 2), (1,)), (
        dict(zip(itertools.product(*(u.alphabets[i] for i in (0, 2))),
                 [Fraction(k, 36) for k in range(9)])),
        {BOT: Fraction(1, 2), "a": Fraction(1, 3), "b": Fraction(1, 6)},
    ))
    hists = u.achievable_histograms()
    # int entries only: a deterministic channel on the count of "a".
    ints = Channel(u, (0, 1, 2, 3),
                   {h: tuple(int(j == h[0]) for j in range(4)) for h in hists})
    # Each row over its own denominator, some entries ints, outcome 3
    # never reachable (zero mass in every row).
    mixed = Channel(u, (0, 1, 2, 3), {
        h: (Fraction(1, 3 + i), 1 - Fraction(1, 3 + i), 0, 0)
        if i % 3 else (1, 0, 0, 0)
        for i, h in enumerate(hists)
    })
    # A float channel, which the Fraction prior must meet in the generic loop.
    floats = Channel(u, (0, 1, 2), {
        h: (0.25, 0.0, 0.75) if i % 2 else (0.1, 0.2, 0.7)
        for i, h in enumerate(hists)
    })
    return [(prior, ch, tgt, zero) for ch, zero in
            ((ints, None), (mixed, 3), (floats, None))
            for tgt in ((0,), (1, 2))]


@pytest.mark.parametrize("case", range(6))
def test_joint_tables_exact_edge_cases_match_the_oracle(case):
    prior, ch, tgt, zero = _tables_cases()[case]
    cells = [((xv, h), m) for (xv, h), m in histogram_masses(prior, tgt).items()]
    want = oracles.tables_from_cells(
        [(xv, m, ch.rows[h]) for (xv, h), m in cells], ch.outcomes
    )
    for got in (JointTables(prior, ch, tgt),
                JointTables.from_cells(cells, RowViews(ch.rows.__getitem__),
                                       ch.outcomes)):
        assert_same_bits(got, want)
        if zero is not None:
            assert got.p_r[zero] == 0 and type(got.p_r[zero]) is Fraction
        for q in QUANTITIES:
            assert q(None, None, None, tables=got) == q(
                None, None, None, tables=want)


def test_row_views_are_freed_without_the_cycle_collector():
    # A reference cycle through a channel's row views would keep every
    # channel of a run, with its rows and views, alive until the cycle
    # collector runs.
    u = uniform_universe(2, (BOT, "a"))
    half = {(BOT,): 0.5, ("a",): 0.5}
    prior = JointPrior(u, ((0,), (1,)), (half, half))
    ch = geometric_counting_channel(u, "a", ratio=0.3)
    max_mi(prior, ch, 0)
    views = weakref.ref(ch._row_views)
    gc.disable()
    try:
        del ch
        assert views() is None
    finally:
        gc.enable()


def test_exact_tables_build_their_fraction_views_on_first_use():
    rng = random.Random(33)
    views = ("p_x", "p_r", "rows")
    for _ in range(20):
        prior = block_prior(rng, True)
        ch = block_channel(rng, prior.universe, True)
        tgt = block_target(rng, prior.universe.n)
        t = JointTables(prior, ch, tgt)
        for q in QUANTITIES:
            q(None, None, None, tables=t)
        output_entropy(None, None, tables=t)
        assert not set(views) & set(vars(t))
        p_x, _, _, m = t.integers
        assert t.p_x == {k: Fraction(a, m) for k, a in p_x.items()}
        want = oracles.joint_tables(prior, ch, tgt)
        assert (t.p_r, t.rows) == (want.p_r, want.rows)
        assert set(views) <= set(vars(t))


def test_rows_list_the_keys_of_p_x_and_mark_cells_without_mass_none():
    # One table form on the integer, float and mixed paths: rows lists the
    # records keys of p_x in their sorted order, and a cell that no support
    # sequence reaches through a nonzero row entry is None (a numerator of
    # 0 in the integer tables). Outcome j is the count of "a"; outcome 3 is
    # never reached.
    u = uniform_universe(2, (BOT, "a", "b"))
    hists = u.achievable_histograms()
    ints = Channel(u, (0, 1, 2, 3),
                   {h: tuple(int(j == h[0]) for j in range(4)) for h in hists})
    floats = Channel(u, (0, 1, 2, 3), {
        h: tuple(float(q) for q in row) for h, row in ints.rows.items()})
    exact = independent_prior(u, [{BOT: Fraction(1, 2), "b": Fraction(1, 2)},
                                  {"a": Fraction(1, 3), "b": Fraction(2, 3)}])
    inexact = independent_prior(u, [{BOT: 0.5, "b": 0.5},
                                    {"a": 0.25, "b": 0.75}])
    paths = 0
    for prior, ch, integer in ((exact, ints, True), (inexact, floats, False),
                               (exact, floats, False), (inexact, ints, False)):
        for tgt in ((0,), (1,), (0, 1)):
            reached = {(tuple(seq[i] for i in tgt), j)
                       for seq, p in prior.iter_support()
                       for j, q in enumerate(ch.rows[u.to_histogram(seq)])
                       if q != 0}
            t = JointTables(prior, ch, tgt)
            assert (t.integers is not None) is integer
            assert list(t.rows) == list(t.p_x) == sorted(t.p_x)
            for xv, row in t.rows.items():
                assert [w is not None for w in row] == [
                    (xv, j) in reached for j in range(4)]
            if integer:
                p_x, _, rows, _ = t.integers
                assert list(rows) == list(p_x) == list(t.p_x)
                assert {xv: [w != 0 for w in row] for xv, row in rows.items()} \
                    == {xv: [w is not None for w in row]
                        for xv, row in t.rows.items()}
            paths += 1
    assert paths == 12


# ---------------------------------------------------------------------------
# Rational priors on integers: validation, masses and every quantity
# against the Fraction loops
# ---------------------------------------------------------------------------

SCANS = ((mi, oracles.mi_scan), (max_rel_entropy, oracles.max_rel_entropy_scan),
         (inferential_eps, oracles.inferential_eps_scan))


def assert_quantities_match_the_scans(t):
    """Every quantity of tables t, with their reprs equal to the Fraction
    (or float) loops on the tables' views."""
    got = [q(None, None, None, tables=t) for q, _ in SCANS]
    got.append(output_entropy(None, None, tables=t))
    want = [scan(t) for _, scan in SCANS]
    want.append(oracles.output_entropy_scan(t))
    assert repr(got) == repr(want)


def _edge_tables():
    """(prior, channel, target) cases for the inferential_eps scan: a
    positive over zero likelihood twice (the first is kept), zero over
    zero everywhere at one outcome, a tie between the two directions of a
    pair, and a single-support prior."""
    u = uniform_universe(1, (BOT, "a", "b"))
    f = Fraction
    third = {BOT: f(1, 3), "a": f(1, 3), "b": f(1, 3)}
    hists = u.achievable_histograms()
    infs = Channel(u, (0, 1, 2, 3), dict(zip(hists, (
        (f(1, 2), f(1, 2), 0, 0), (f(1, 2), 0, f(1, 2), 0),
        (0, f(1, 2), f(1, 2), 0)))))
    ties = Channel(u, (0, 1, 2), dict(zip(hists, (
        (f(1, 2), f(1, 4), f(1, 4)), (f(1, 4), f(1, 2), f(1, 4)),
        (f(1, 3), f(1, 3), f(1, 3))))))
    single = independent_prior(u, [{"a": 1}])
    return [(independent_prior(u, [third]), infs, 0),
            (independent_prior(u, [third]), ties, 0),
            (independent_prior(u, [{BOT: f(1, 2), "b": f(1, 2)}]), ties, 0),
            (single, ties, 0), (single, infs, 0)]


def test_quantities_match_the_fraction_loops():
    # Rational, float and mixed block priors (float weights, some turned
    # into the Fraction of their value) with zero cells, on rational and
    # float channels with zero entries, then the hand-made edge cases.
    rng = random.Random(37)
    integer = generic = 0
    for exact in (True, False):
        for _ in range(60):
            prior = block_prior(rng, exact)
            ch = block_channel(rng, prior.universe, rng.random() < 0.7)
            tgt = block_target(rng, prior.universe.n)
            t = JointTables(prior, ch, tgt)
            if t.integers is None:
                generic += 1
            else:
                integer += 1
            assert_quantities_match_the_scans(t)
    assert integer > 20 and generic > 20
    for prior, ch, tgt, _ in _tables_cases():
        assert_quantities_match_the_scans(JointTables(prior, ch, tgt))
    for prior, ch, tgt in _edge_tables():
        t = JointTables(prior, ch, tgt)
        assert t.integers is not None
        assert_quantities_match_the_scans(t)
    # Records keys sort as a, b, BOT. The first positive over zero is
    # (a, b) at outcome 1, before (a, BOT) at 2; the ratio 2 is reached
    # at (b, BOT, 1) before (BOT, b, 0).
    infs, ties, pair = (inferential_eps(*case) for case in _edge_tables()[:3])
    assert (infs.ratio, infs.witness) == (math.inf, {
        "numerator_records": ["a"], "denominator_records": ["b"],
        "outcome": 1})
    for q in (ties, pair):
        assert (q.ratio, q.witness) == (2, {
            "numerator_records": ["b"], "denominator_records": [BOT],
            "outcome": 1})


def test_leakage_report_reuses_only_an_exact_table_for_output_entropy():
    # An exact p_r is the same for every target; a float p_r is summed in
    # an order that depends on the target, so the report's output entropy
    # is always that of the target (0,).
    rng = random.Random(38)
    order_matters = 0
    for exact in (True, False):
        for _ in range(80):
            prior = block_prior(rng, exact)
            n = prior.universe.n
            ch = block_channel(rng, prior.universe, exact)
            targets = [block_target(rng, n) for _ in range(2)]
            rep = leakage_report(prior, ch, targets)
            own = oracles.output_entropy_scan(JointTables(prior, ch, (0,)))
            assert repr(rep.output_entropy) == repr(own)
            first = JointTables(prior, ch, targets[0])
            order_matters += (
                repr(oracles.output_entropy_scan(first)) != repr(own))
    assert order_matters > 0


def _table_cases(rng):
    """(universe, blocks, tables) with rational, float and mixed tables,
    about half of them broken: an unknown symbol, a short key, a negative
    entry, or a sum off by 1e-8 (rejected) or 1e-10 (accepted)."""
    u = RecordUniverse(((BOT, "a"), (BOT, "a", "b"), ("a", "b")))
    f = Fraction
    for _ in range(300):
        blocks = rng.choice((((0,), (1,), (2,)), ((0, 2), (1,)), ((0, 1, 2),)))
        tables = []
        for b in blocks:
            keys = list(itertools.product(*(u.alphabets[i] for i in b)))
            kind = rng.choice(("exact", "float", "mixed"))
            weights = _weights(rng, len(keys), kind == "exact")
            if kind == "float":
                weights = [float(w) for w in weights]
            tables.append(dict(zip(keys, weights)))
        table = rng.choice(tables)
        key = rng.choice(list(table))
        fault = rng.randrange(8)
        if fault == 0:
            table[key[:-1] + ("c",)] = table.pop(key)
        elif fault == 1:
            table[key[:-1]] = table.pop(key)
        elif fault == 2:
            table[key] = -table[key]
        elif fault in (3, 4):
            off = f(1, 10**8) if fault == 3 else f(1, 10**10)
            table[key] += off if isinstance(table[key], f) else float(off)
        yield u, blocks, tables


def test_prior_validation_matches_the_fraction_sum():
    rng = random.Random(39)
    rejected = accepted = 0
    for u, blocks, tables in _table_cases(rng):
        want = oracles.table_error(u, blocks, tables)
        if want is None:
            prior = JointPrior(u, blocks, tables)
            accepted += 1
            assert prior.support_size() == math.prod(
                sum(1 for p in t.values() if p > 0) for t in tables)
        else:
            rejected += 1
            with pytest.raises(PriorError) as exc:
                JointPrior(u, blocks, tables)
            assert str(exc.value) == want
    assert rejected > 50 and accepted > 50


def test_prior_validation_messages_are_pinned():
    u = uniform_universe(1, (BOT, "a"))
    half = Fraction(1, 2)

    def rejects(table, message):
        with pytest.raises(PriorError) as exc:
            JointPrior(u, ((0,),), (table,))
        assert str(exc.value) == message

    negative = "negative probability at ('a',) in block (0,)"
    rejects({(BOT,): Fraction(3, 2), ("a",): -half}, negative)
    rejects({(BOT,): 1.5, ("a",): -0.5}, negative)
    off = "table of block (0,) sums to 1.00000001, expected 1"
    rejects({(BOT,): half, ("a",): half + Fraction(1, 10**8)}, off)
    rejects({(BOT,): 0.5, ("a",): 0.5 + 1e-8}, off)
    rejects({(BOT,): Fraction(1, 3), ("a",): Fraction(1, 3)},
            "table of block (0,) sums to 0.6666666666666666, expected 1")
    for table in ({(BOT,): half, ("a",): half + Fraction(1, 10**10)},
                  {(BOT,): 0.5, ("a",): 0.5 + 1e-10}):
        assert JointPrior(u, ((0,),), (table,)).tables == (table,)


def test_int_division_is_the_float_of_the_fraction():
    # The premise of the integer paths: int / int is the correctly rounded
    # float of the exact quotient, as float(Fraction) is, and both raise
    # OverflowError beyond the float range.
    rng = random.Random(40)
    overflows = underflows = 0
    for _ in range(20000):
        a = rng.getrandbits(rng.randint(1, 3000))
        b = rng.getrandbits(rng.randint(1, 3000)) or 1
        try:
            want = float(Fraction(a, b))
        except OverflowError:
            overflows += 1
            with pytest.raises(OverflowError):
                a / b
            continue
        assert a / b == want
        underflows += a and want == 0.0
    assert overflows > 1000 and underflows > 1000


# ---------------------------------------------------------------------------
# Dependence coefficient: first-term sums against the int-start oracle
# ---------------------------------------------------------------------------


def test_sigma_matches_the_int_start_oracle():
    rng = random.Random(34)
    for exact in (True, False):
        for _ in range(60):
            prior = block_prior(rng, exact)
            assert repr(sigma(prior)) == repr(oracles.sigma(prior))
    # A perfect copy: the two records share no complement, so the overlap
    # is an int 0 and sigma an int 1.
    half = Fraction(1, 2)
    for cells in (((BOT, BOT), ("a", "a")), ((BOT, "a", BOT), ("a", BOT, "a"))):
        u = uniform_universe(len(cells[0]), (BOT, "a"))
        copy = JointPrior(u, (tuple(range(u.n)),), ({c: half for c in cells},))
        assert repr(sigma(copy)) == repr(oracles.sigma(copy))
        assert type(sigma(copy)[0]) is int


# ---------------------------------------------------------------------------
# k-change ratio scans against the ratio_div oracle
# ---------------------------------------------------------------------------


def random_rational_rows(rng, hists, n_out):
    """Rows of small integer weights over their own sums, about a third of
    the entries zero, so ratios tie and rows differ in denominator."""
    rows = {}
    for h in hists:
        weights = [0] * n_out
        while not any(weights):
            weights = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n_out)]
        total = sum(weights)
        rows[h] = tuple(Fraction(w, total) for w in weights)
    return rows


def seeded_scan_channels(rng):
    """Geometric and matrix channels on per-individual alphabets and
    randomized response on a shared one, all rational."""
    while True:
        u = per_individual_universe(rng, n_max=4)
        if u.pooled_alphabet:
            break
    ratio = Fraction(rng.randint(1, 6), 7)
    yield geometric_counting_channel(
        u, rng.choice(u.pooled_alphabet), ratio=ratio,
        max_count=None if rng.random() < 0.5 else u.n + 1,
    )
    hists = u.achievable_histograms()
    n_out = rng.randint(1, 5)
    yield Channel(u, tuple(range(n_out)), random_rational_rows(rng, hists, n_out))
    shared = uniform_universe(rng.randint(1, 4), random_alphabet(rng))
    yield randomized_response_channel(shared, Fraction(rng.randint(0, 6), 6))


def assert_scans_match(ch):
    for k in sorted({1, 2, ch.universe.n}):
        got = lipschitz_ratio(ch, k)
        assert repr(got) == repr(oracles.lipschitz_ratio(ch, k)), k


def test_lipschitz_ratio_matches_the_ratio_div_oracle():
    rng = random.Random(61)
    for _ in range(40):
        for ch in seeded_scan_channels(rng):
            assert_scans_match(ch)


def test_scan_edge_cells_match_the_ratio_div_oracle():
    u = uniform_universe(1, (BOT, "a"))
    lo, hi = u.achievable_histograms()
    f = Fraction
    cases = {
        # Outcome 2 is 1/4 over 0 one way: inf, witness (hi, lo, 2).
        "inf": {lo: (f(1, 2), f(1, 2), 0), hi: (f(1, 2), f(1, 4), f(1, 4))},
        # Outcome 2 is 0 in both rows and must not count.
        "zero_over_zero": {lo: (f(1, 2), f(1, 2), 0), hi: (f(1, 4), f(3, 4), 0)},
        # 2 at outcome 0 (lo/hi) ties 2 at outcome 1 (hi/lo): keep the first.
        "tie": {lo: (f(1, 2), f(1, 4), f(1, 4)), hi: (f(1, 4), f(1, 2), f(1, 4))},
        # ints only: ratios 0.0 and inf, as int / int gives.
        "ints": {lo: (1, 0), hi: (0, 1)},
        # Identical rows: ratio 1 everywhere, first cell wins.
        "equal": {lo: (f(1, 3), f(2, 3)), hi: (f(1, 3), f(2, 3))},
    }
    for name, rows in cases.items():
        ch = Channel(u, tuple(range(len(rows[lo]))), rows)
        assert_scans_match(ch)
    tie = lipschitz_ratio(Channel(u, (0, 1, 2), cases["tie"]), 1)
    assert (tie.ratio, tie.num_hist, tie.outcome) == (2, lo, 0)
    inf = lipschitz_ratio(Channel(u, (0, 1, 2), cases["inf"]), 1)
    assert (inf.ratio, inf.num_hist, inf.outcome) == (math.inf, hi, 2)


def test_scans_on_shared_and_per_row_denominators_match_the_oracle():
    # One channel's rows as integers over one shared d, over each row's own
    # d, and half of each: the same scan as the ratio_div oracle. Small
    # weights with zeros give ties, positive-over-zero and 0/0 cells.
    rng = random.Random(63)
    seen = set()
    for _ in range(40):
        u = per_individual_universe(rng, n_max=4)
        hists = u.achievable_histograms()
        n_out = rng.randint(1, 5)
        own = {}
        for h in hists:
            weights = [0] * n_out
            while not any(weights):
                weights = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n_out)]
            own[h] = weights, sum(weights)
        d = math.lcm(*(t for _, t in own.values()))
        shared = {h: ([w * (d // t) for w in ws], d)
                  for h, (ws, t) in own.items()}
        both = {h: (shared if i % 2 else own)[h] for i, h in enumerate(hists)}
        for dense in (shared, own, both):
            ch = Channel.from_numerators(u, tuple(range(n_out)), dense)
            assert_scans_match(ch)
            cells = [(a, b) for h1, h2 in change_histogram_pairs(u, u.n)
                     for x, y in zip(ch.rows[h1], ch.rows[h2])
                     for a, b in ((x, y), (y, x))]
            seen |= {"0/0" for a, b in cells if a == b == 0}
            seen |= {"x/0" for a, b in cells if a and not b}
            finite = [a / b for a, b in cells if b]
            if finite and finite.count(max(finite)) > 1:
                seen.add("tie")
    assert seen == {"0/0", "x/0", "tie"}


def test_float_and_mixed_scans_keep_their_bits():
    rng = random.Random(62)
    for _ in range(20):
        u = per_individual_universe(rng, n_max=3)
        floats = random_channel(rng, u, zero_prob=0.3)
        hists = u.achievable_histograms()
        n_out = len(floats.outcomes)
        exact = random_rational_rows(rng, hists, n_out)
        # Some rows float, some rational, and one row of both kinds.
        rows = {h: floats.rows[h] if i % 2 else exact[h]
                for i, h in enumerate(hists)}
        first = hists[0]
        a, b, *rest = exact[first]
        rows[first] = (a / 2, float(a) / 2 + b, *rest)
        mixed = Channel(u, floats.outcomes, rows)
        for ch in (floats, mixed):
            assert_scans_match(ch)


def test_channel_validation_messages_are_pinned():
    u = uniform_universe(1, (BOT, "a"))
    lo, hi = u.achievable_histograms()
    good = (Fraction(1, 2), Fraction(1, 2))

    def rejects(row, message):
        with pytest.raises(ChannelError) as exc:
            Channel(u, (0, 1), {lo: good, hi: row})
        assert str(exc.value) == message

    rejects((Fraction(3, 2), Fraction(-1, 2)), "negative probability in row (1,)")
    rejects((1.5, -0.5), "negative probability in row (1,)")
    rejects((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**8)),
            "row (1,) sums to 1.00000001, expected 1")
    rejects((0.5, 0.5 + 1e-8), "row (1,) sums to 1.00000001, expected 1")
    rejects((Fraction(1, 3), Fraction(1, 3)),
            "row (1,) sums to 0.6666666666666666, expected 1")
    for row in ((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**10)),
                (0.5, 0.5 + 1e-10)):
        assert Channel(u, (0, 1), {lo: good, hi: row}).rows[hi] == row


# ---------------------------------------------------------------------------
# max_mi on integers against the per-cell Fraction scan
# ---------------------------------------------------------------------------


def assert_max_mi_matches(t):
    assert repr(max_mi(None, None, None, tables=t)) == repr(
        oracles.max_mi_scan(t))


def test_max_mi_integer_scan_matches_the_fraction_oracle():
    rng = random.Random(63)
    for _ in range(60):
        prior = block_prior(rng, True)
        ch = block_channel(rng, prior.universe, True)
        t = JointTables(prior, ch, block_target(rng, prior.universe.n))
        assert t.integers is not None
        assert_max_mi_matches(t)


def test_max_mi_float_and_mixed_tables_keep_their_bits():
    rng = random.Random(64)
    generic = 0
    for _ in range(40):
        prior = block_prior(rng, False)
        ch = block_channel(rng, prior.universe, rng.random() < 0.5)
        t = JointTables(prior, ch, block_target(rng, prior.universe.n))
        generic += t.integers is None
        assert_max_mi_matches(t)
    assert generic > 0
    for prior, ch, tgt, _ in _tables_cases():
        assert_max_mi_matches(JointTables(prior, ch, tgt))


def test_max_mi_edge_cells_match_the_fraction_oracle():
    f = Fraction
    rows = {
        # Symmetric rows: records "a" at outcome 0 and "b" at outcome 1
        # both reach 4/3, and the first (sorted records key) is kept.
        "x": (f(2, 3), f(1, 3), 0),
        "y": (f(1, 3), f(2, 3), 0),
        # Outcome 2 is never reachable: p_r is zero there.
        "z": (f(1, 2), f(1, 2), 0),
    }
    cases = {
        "tie": [((("a",), "x"), f(1, 2)), ((("b",), "y"), f(1, 2))],
        # A zero-mass records key (p_x zero) and zero joint cells.
        "zeros": [((("a",), "x"), f(1, 2)), ((("b",), "y"), f(1, 2)),
                  ((("c",), "z"), f(0))],
        # Int masses and entries, as from_cells may receive.
        "ints": [((("a",), "x"), 1)],
    }
    for name, cells in cases.items():
        t = JointTables.from_cells(cells, RowViews(rows.__getitem__),
                                   (0, 1, 2))
        assert t.integers is not None, name
        assert t.p_r[2] == 0
        assert_max_mi_matches(t)
    tie = max_mi(None, None, None, tables=JointTables.from_cells(
        cases["tie"], RowViews(rows.__getitem__), (0, 1, 2)))
    assert (tie.ratio, tie.witness) == (f(4, 3), {"records": ["a"],
                                                 "outcome": 0})


def test_max_mi_on_composed_tables_matches_the_fraction_oracle():
    # Cells and folded rows as the composition cross-checks build them.
    rng = random.Random(65)
    for exact in (True, False):
        for _ in range(20):
            prior = block_prior(rng, exact, max_support=24)
            u = prior.universe
            channels = [block_channel(rng, u, exact) for _ in range(2)]
            tgt = block_target(rng, u.n)

            def row_of(h):
                a, b = (c.rows[h] for c in channels)
                return [x * y for x in a for y in b]

            outcomes = tuple(itertools.product(
                *(c.outcomes for c in channels)))
            t = JointTables.from_cells(histogram_masses(prior, tgt).items(),
                                       RowViews(row_of), outcomes)
            if exact:
                assert t.integers is not None
            assert_max_mi_matches(t)


# ---------------------------------------------------------------------------
# Worst-case search: one candidate per symmetry class against every candidate
# ---------------------------------------------------------------------------


def sup_channel(rng, u, exact):
    """A channel with no zero entries, so no candidate leaks 1/eta and the
    ratios tell candidates apart."""
    if not exact:
        return random_channel(rng, u)
    if rng.random() < 0.5:
        return geometric_counting_channel(
            u, "a", ratio=Fraction(rng.randint(1, 6), 7))
    n_out = rng.randint(2, 4)
    rows = {}
    for h in u.achievable_histograms():
        weights = [rng.randint(1, 5) for _ in range(n_out)]
        rows[h] = tuple(Fraction(w, sum(weights)) for w in weights)
    return Channel(u, tuple(range(n_out)), rows)


def sup_plan():
    """(universe, families, targets): block budgets k in {1, 2, n},
    dependence caps (with no block limit they bring in the
    shared/private-complement construction) and bands, on {BOT, a, b}
    universes, some with the last individual restricted to {BOT, a}. The
    last universe has non-targets of two alphabets. Complement candidates
    grow as the cube of the complements, so they stay on small universes."""
    f = FamilyParams
    band = f(k=2, ell=1, tau=0.5)
    complement = (f(exp_delta=Fraction(4, 5)), f(exp_delta=1),
                  f(exp_delta=Fraction(4, 5), ell=1, tau=1.0))
    small = (f(k=1), f(k=2), f(k=2, exp_delta=Fraction(1, 2)), band)
    both = (0, (0, 1))
    yield uniform_universe(2, (BOT, "a", "b")), small + complement, both
    yield RecordUniverse(((BOT, "a", "b"), (BOT, "a"))), small + complement, both
    yield uniform_universe(3, (BOT, "a", "b")), (f(k=1), f(k=3)), both
    yield (RecordUniverse(((BOT, "a", "b"), (BOT, "a", "b"), (BOT, "a"))),
           (f(k=2), band, f(k=3, ell=2, tau=1.0)), both)
    yield (RecordUniverse(((BOT, "a"), (BOT, "a", "b"), (BOT, "a"))),
           complement[::2], (0,))


def sup_cases(rng, exact=True):
    """(channel, family, target, eta) over sup_plan, rational and float
    channels in turn, the first one rational when exact is true. The
    default eta keeps near-point masses out of every band; at 1/3 the
    two-point marginals of {BOT, a} individuals are in it."""
    for u, families, targets in sup_plan():
        for family in families:
            ch = sup_channel(rng, u, exact)
            exact = not exact
            etas = (DEFAULT_ETA,)
            if family.ell is not None:
                etas += (Fraction(1, 3),)
            for eta in etas:
                for target in targets:
                    yield ch, family, target, eta


@pytest.mark.parametrize("exact", [True, False],
                         ids=["Fraction_first", "float_first"])
def test_worstcase_sup_classes_match_the_per_candidate_oracle(exact):
    rng = random.Random(66 if exact else 67)
    for ch, family, target, eta in sup_cases(rng, exact):
        sampler_seed = rng.randrange(1000)
        got, want = (
            sup(ch, family, target, rng=random.Random(sampler_seed),
                samples=3, eta=eta)
            for sup in (worstcase_sup, oracles.worstcase_sup)
        )
        assert repr(got) == repr(want), (ch.universe, family, target, eta)


def test_class_members_measure_and_filter_alike():
    # What the search relies on: every member of a class has the first
    # member's max_mi and membership, whether or not it would change the
    # sup.
    rng = random.Random(68)
    merged = 0
    for ch, family, target, eta in sup_cases(rng):
        tgt = normalize_target(ch.universe.n, target)
        first = {}
        for key, build in itertools.chain(
            oracles._extremal_pair_candidates(ch, family, tgt, eta, None),
            oracles._extremal_pdelta_candidates(ch, family, tgt, eta, None),
        ):
            prior, _ = build()
            m = check_membership(prior, family)
            seen = (m.ok, m.max_block_size, m.sigma_value, m.band_count,
                    repr(max_mi(prior, ch, tgt)))
            if key in first:
                merged += 1
                assert first[key] == seen, (ch.universe, family, key)
            else:
                first[key] = seen
    assert merged > 0


def test_symmetry_classes_match_the_member_walks():
    # Per class, the generator gives the old walks' first member (and so
    # its block), member count and visit order, and each construction
    # charges its member count before it makes a class: per-individual
    # alphabets, one-symbol ones included, single and group targets, every
    # k and no block limit.
    rng = random.Random(73)
    seen = collections.Counter()
    shared = [uniform_universe(3, (BOT, "a", "b")),
              RecordUniverse(((BOT, "a"), ("a",), (BOT, "a"), ("a",))),
              RecordUniverse((("a", "b"), (BOT, "a"), ("a", "b"),
                              (BOT, "a")))]
    for u in shared + [per_individual_universe(rng, n_max=4,
                                               max_sequences=40)
                       for _ in range(40)]:
        ch = random_channel(rng, u)
        group = tuple(sorted(rng.sample(range(u.n), rng.randint(1, u.n))))
        for k in (*range(1, u.n + 1), None):
            family = FamilyParams(k=k, exp_delta=Fraction(1, 2))
            for tgt in {(0,), group}:
                for classes, walk in (
                        (_pair_classes, oracles._pair_layouts),
                        (_pdelta_classes, oracles._pdelta_layouts)):
                    members = list(walk(ch, family, tgt, None))
                    want = oracles.walk_classes(members)
                    assert list(classes(ch, family, tgt, None)) == want, (
                        u, family, tgt, classes)
                    seen["merged"] += len(want) < len(members)
                    seen["group"] += len(tgt) > 1 and bool(want)
                    seen["one_symbol"] += 1 in map(len, u.alphabets)
                    if not members:
                        continue
                    with pytest.raises(EnumerationBudgetError) as exc:
                        list(classes(ch, family, tgt, len(members) - 1))
                    assert exc.value.stage == "worstcase_sup"
                    assert exc.value.cardinality == len(members)
                    assert list(classes(ch, family, tgt, len(members))) == want
                    seen[classes.__name__] += 1
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_search_charges_its_members_before_it_lists_them():
    # A twelve-individual group target has 3**12 * (3**12 - 1) ordered
    # pairs of differing records: the charge comes before any is listed.
    u = uniform_universe(12, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    with pytest.raises(EnumerationBudgetError) as exc:
        worstcase_sup(ch, FamilyParams(k=1), tuple(range(12)), samples=0)
    assert exc.value.stage == "worstcase_sup"
    assert exc.value.cardinality == 3**12 * (3**12 - 1)


def test_search_never_walks_the_sequence_pairs(monkeypatch):
    # The extremal half enumerates symmetry classes, not dataset sequences:
    # with the sequence walks raising, the search still gives the oracle's
    # result, pair and complement classes included.
    u = RecordUniverse(((BOT, "a", "b"), (BOT, "a"), (BOT, "a", "b")))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    cases = [(FamilyParams(k=k, exp_delta=Fraction(3, 4)), target)
             for k in (1, 2, None) for target in (0, (0, 2))]
    want = [oracles.worstcase_sup(ch, family, target, rng=random.Random(4),
                                  samples=10) for family, target in cases]

    def walked(*args, **kwargs):
        raise AssertionError("the search walked the dataset sequences")

    for module in (privlens, audit_module, mechanism_module):
        monkeypatch.setattr(module, "change_sequence_pairs", walked,
                            raising=False)
    monkeypatch.setattr(RecordUniverse, "iter_sequences", walked)
    got = [worstcase_sup(ch, family, target, rng=random.Random(4),
                         samples=10) for family, target in cases]
    assert list(map(repr, got)) == list(map(repr, want))
    assert all(g.evaluated["extremal"] for g in got)


def class_tables(ch, family, tgt, eta, kind):
    """{first member's layout: support} of the search's classes of one
    kind, the layout read back from the class's description: (s_num, s_den,
    block) for a pair class, (x_num, x_den, shared, numerator and
    denominator complements) for a complement class."""
    def layout(desc):
        if kind == "near_point_pair":
            return tuple(tuple(desc[f]) for f in (
                "numerator_sequence", "denominator_sequence",
                "dependent_block"))
        return (*desc["target_records"], tuple(desc["shared_complement"]),
                *map(tuple, desc["private_complements"]))

    return {layout(desc): support for _, desc, support in _extremal_tables(
        ch, family, tgt, eta, None) if desc["kind"] == kind}


def test_pair_cells_and_membership_are_read_off_the_layout():
    # Over every pair candidate, for a Fraction and a float eta: the table
    # read off the two sequences is the built prior's iter_support as
    # masses over d (sequences, masses and order), and its support_cells
    # are histogram_cells of the prior (keys, masses, d and order); the
    # layout's membership, band included, is check_membership's; and the
    # search's stream gives a filtered class no table, and an admitted one
    # the (size, codes, build) of its first member: its size is the 2^m
    # support sequences, its codes their histograms' codes, and build gives
    # the member's table, which charges its size to the JointTables budget
    # and measures as max_mi of the built prior. Every class of the stream
    # is a candidate.
    rng = random.Random(69)
    admitted = filtered = banded = 0
    for ch, family, target, exact_eta in sup_cases(rng):
        u = ch.universe
        tgt = normalize_target(u.n, target)
        for eta in (exact_eta, float(exact_eta)):
            classes = class_tables(ch, family, tgt, eta, "near_point_pair")
            for _, s_num, s_den, block in oracles._pair_layouts(
                    ch, family, tgt, None):
                prior = extremal_pair_prior(u, s_num, s_den, block=block,
                                            eta=eta)
                table, d = extremal_pair_table(u, s_num, s_den, block, eta)
                assert repr([(seq, a if d is None else Fraction(a, d))
                             for seq, a in table.items()]) == repr(
                    list(prior.iter_support())), (u, s_num, s_den, block)
                assert repr(support_cells(u, table, d, tgt)) == repr(
                    histogram_cells(prior, tgt)), (u, s_num, s_den, block)
                m = check_membership(prior, family)
                assert extremal_pair_violations(
                    u, family, s_num, s_den,
                    _pair_groups(s_num, s_den, block, eta), eta) == list(
                        m.violations), (family, s_num, s_den, block, eta)
                banded += m.band_count is not None and 0 < m.band_count
                if (s_num, s_den, block) not in classes:
                    continue
                support = classes.pop((s_num, s_den, block))
                if not m.ok:
                    filtered += 1
                    assert support is None
                    continue
                admitted += 1
                size, codes, build = support
                assert repr(build()) == repr((table, d))
                assert size == prior.support_size()
                assert codes == {u.encode_histogram(h)
                                 for (_, h), _ in histogram_cells(prior,
                                                                  ())[0]}
                with pytest.raises(EnumerationBudgetError,
                                   match="JointTables"):
                    _table_max_mi(ch, tgt, size - 1, *build())
                q = _table_max_mi(ch, tgt, size, *build())
                assert repr(q) == repr(max_mi(prior, ch, tgt))
            assert not classes, (u, family, tgt, eta)
    assert admitted > 0 and filtered > 0 and banded > 0
    # Two-point singletons outside the target share cells, which
    # support_cells merges as histogram_cells does.
    u = uniform_universe(3, (BOT, "a"))
    s_num, s_den, eta = ("a", "a", BOT), (BOT, BOT, "a"), Fraction(1, 3)
    prior = extremal_pair_prior(u, s_num, s_den, block=(), eta=eta)
    cells = support_cells(u, *extremal_pair_table(u, s_num, s_den, (), eta),
                          (0,))
    assert repr(cells) == repr(histogram_cells(prior, (0,)))
    assert len(cells[0]) < prior.support_size()


def test_pair_read_off_rejects_an_eta_outside_the_unit_interval():
    u = uniform_universe(2, (BOT, "a"))
    s_num, s_den = ("a", BOT), (BOT, BOT)
    for eta in (0, 1, Fraction(3, 2), -0.5):
        for read in (
                lambda: extremal_pair_table(u, s_num, s_den, (), eta),
                lambda: extremal_pair_violations(
                    u, FamilyParams(k=1), s_num, s_den,
                    _pair_groups(s_num, s_den, (), eta), eta)):
            with pytest.raises(PriorError, match="eta"):
                read()


def test_pair_block_none_is_every_differing_coordinate():
    # On every pair candidate of the seeded cases, for a Fraction and a
    # float eta, block=None builds the prior and reads the table of the
    # explicit block of differing coordinates, as tightness_pk reads it.
    rng = random.Random(71)
    pairs = set()
    for ch, family, target, eta in sup_cases(rng):
        tgt = normalize_target(ch.universe.n, target)
        for _, s_num, s_den, _ in oracles._pair_layouts(ch, family, tgt,
                                                         None):
            pairs.add((ch.universe, s_num, s_den, eta))
    assert len(pairs) > 100
    for u, s_num, s_den, exact_eta in pairs:
        diff = tuple(i for i in range(u.n) if s_num[i] != s_den[i])
        for eta in (exact_eta, float(exact_eta)):
            got, want = (extremal_pair_prior(u, s_num, s_den, block=block,
                                             eta=eta)
                         for block in (None, diff))
            assert got.blocks == want.blocks, (s_num, s_den)
            assert repr(got.tables) == repr(want.tables), (s_num, s_den)
            assert repr(extremal_pair_table(u, s_num, s_den, None, eta)) == (
                repr(extremal_pair_table(u, s_num, s_den, diff, eta)))


@pytest.mark.parametrize("s_num, s_den, block, eta, message", [
    (("a", BOT), ("a", BOT), None, DEFAULT_ETA,
     "sequences are identical; no pair to concentrate on"),
    (("a", BOT), ("a", BOT), (), DEFAULT_ETA,
     "sequences are identical; no pair to concentrate on"),
    (("a", BOT), (BOT, BOT), (0, 1), DEFAULT_ETA,
     "coordinate 1 in the dependent block does not differ"),
    (("a", BOT), (BOT, BOT), (1,), DEFAULT_ETA,
     "coordinate 1 in the dependent block does not differ"),
    (("a", BOT), (BOT, BOT), None, Fraction(0),
     "eta must be strictly between 0 and 1"),
    (("a", BOT), (BOT, BOT), (0,), 1.5,
     "eta must be strictly between 0 and 1"),
], ids=["identical", "identical_empty_block", "block_agrees",
        "block_agrees_only", "eta_0", "eta_above_1"])
def test_pair_prior_and_table_raise_the_same_error(s_num, s_den, block, eta,
                                                   message):
    u = uniform_universe(2, (BOT, "a"))
    for read in (
            lambda: extremal_pair_prior(u, s_num, s_den, block=block,
                                        eta=eta),
            lambda: extremal_pair_table(u, s_num, s_den, block, eta)):
        with pytest.raises(PriorError) as err:
            read()
        assert str(err.value) == message


@pytest.mark.parametrize("s_num, s_den, block", [
    (("a", BOT), ("a", BOT), None),
    (("a", BOT), ("a", BOT), ()),
    (("a", BOT), (BOT, BOT), (0, 1)),
    (("a", BOT), (BOT, BOT), (1,)),
], ids=["identical", "identical_empty_block", "block_agrees",
        "block_agrees_only"])
def test_pair_violations_raise_as_the_prior_and_table(s_num, s_den, block):
    # The layout's membership reader takes the pair's _pair_groups, which
    # check the pair as the prior and its table do and give the same
    # message.
    u = uniform_universe(2, (BOT, "a"))
    messages = set()
    for read in (
            lambda: extremal_pair_prior(u, s_num, s_den, block=block),
            lambda: extremal_pair_table(u, s_num, s_den, block, DEFAULT_ETA),
            lambda: extremal_pair_violations(
                u, FamilyParams(ell=1, tau=0.5), s_num, s_den,
                _pair_groups(s_num, s_den, block, DEFAULT_ETA),
                DEFAULT_ETA)):
        with pytest.raises(PriorError) as err:
            read()
        messages.add(str(err.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("exact, eta", [(False, DEFAULT_ETA), (True, 0.25)],
                         ids=["float_channel", "float_eta"])
def test_worstcase_sup_float_inputs_match_the_per_candidate_oracle(exact,
                                                                   eta):
    # A float channel or a float eta takes the read-off pair cells into
    # float tables.
    u = RecordUniverse(((BOT, "a", "b"), (BOT, "a", "b"), (BOT, "a")))
    ch = sup_channel(random.Random(70), u, exact)
    for family in (FamilyParams(k=2),
                   FamilyParams(k=3, exp_delta=Fraction(1, 2)),
                   FamilyParams(k=2, ell=1, tau=1.0)):
        for target in (0, (0, 1)):
            got, want = (
                sup(ch, family, target, rng=random.Random(5), samples=20,
                    eta=eta)
                for sup in (worstcase_sup, oracles.worstcase_sup)
            )
            assert repr(got) == repr(want), (family, target)


# ---------------------------------------------------------------------------
# Extremal candidates bounded by their rows before they are measured
# ---------------------------------------------------------------------------


def admitted_tables(ch, family, tgt, eta):
    """(kind, table, d) of the first member of each admitted extremal class
    of the search, pair classes first; membership of a complement class is
    read off its built prior."""
    u = ch.universe
    for _, s_num, s_den, block in _pair_classes(ch, family, tgt, None):
        if not extremal_pair_violations(
                u, family, s_num, s_den,
                _pair_groups(s_num, s_den, block, eta), eta):
            yield ("pair", *extremal_pair_table(u, s_num, s_den, block, eta))
    for _, *layout in _pdelta_classes(ch, family, tgt, None):
        prior = extremal_pdelta_prior(u, tgt[0], *layout, family.exp_delta,
                                      eta=eta)
        if check_membership(prior, family).ok:
            yield ("complement", *extremal_pdelta_table(
                u, tgt[0], *layout, pdelta_branches(family.exp_delta, eta)))


def table_codes(u, table):
    """The set of histogram codes of a support table's sequences."""
    return frozenset(sum(u.code_weights[sym] for sym in seq)
                     for seq in table)


def test_row_bound_never_undercuts_the_measurement():
    # Wherever the rows bound a candidate's max_mi by b, its measured
    # max_mi is at most b. b runs over the measured ratios of the case (at
    # most eight of them, both ends included), so the bound holds and
    # fails, and holds with equality; the cases bring group targets at
    # k=2, complement candidates and matrix rows with their own
    # denominators. Float rows are never bounded.
    rng = random.Random(74)
    seen = collections.Counter()
    for ch, family, target, eta in sup_cases(rng):
        tgt = normalize_target(ch.universe.n, target)
        tables = list(admitted_tables(ch, family, tgt, eta))
        measured = [_table_max_mi(ch, tgt, None, table, d).ratio
                    for _, table, d in tables]
        ratios = sorted(set(measured), key=float)
        bounds = ratios[::max(1, len(ratios) // 7)] + ratios[-1:]
        rational = all(row is not None for row in ch._dense.values())
        own = rational and len({d for _, d in ch._dense.values()}) > 1
        for (kind, table, _), r in zip(tables, measured):
            for b in bounds:
                if not _rows_bound(ch, table_codes(ch.universe, table), b,
                                   {}):
                    seen["open"] += 1
                    continue
                assert rational and r <= b, (ch.universe, family, tgt, b)
                seen["bounded"] += 1
                seen["tight"] += r == b
                seen[kind] += 1
                seen["own denominators"] += own
                seen["group k=2"] += len(tgt) > 1 and family.k == 2
        seen["float rows"] += not rational
    assert min(seen[k] for k in (
        "open", "bounded", "tight", "pair", "complement", "own denominators",
        "group k=2", "float rows")) > 0, seen


def test_memoized_row_bound_decides_like_the_column_check():
    # On every admitted class of the search's stream, at bounds from the
    # measured ratios of the case and at a float, the bound through one
    # ratios dict per search decides as the direct check: best is a
    # Fraction, the rows of the support's histograms are rational, and on
    # every outcome their largest entry is at most best times their
    # smallest, compared on the Fraction rows. A class's codes are those of
    # its built table, so a pair class, bounded before its table is built,
    # decides as that table does; the cases bring group targets at k=2,
    # complement classes and matrix rows with their own denominators.
    rng = random.Random(78)
    seen = collections.Counter()
    for ch, family, target, eta in sup_cases(rng):
        u = ch.universe
        tgt = normalize_target(u.n, target)
        items = [(desc["kind"], support[1], support[2]())
                 for _, desc, support in _extremal_tables(ch, family, tgt,
                                                          eta, None)
                 if support is not None]
        ratios = sorted({_table_max_mi(ch, tgt, None, *t).ratio
                         for _, _, t in items}, key=float)
        bounds = ratios[::max(1, len(ratios) // 5)] + ratios[-1:] + [1e9]
        rational = all(row is not None for row in ch._dense.values())
        own = rational and len({d for _, d in ch._dense.values()}) > 1
        memo = {}
        for kind, codes, (table, _) in items:
            assert codes == table_codes(u, table), (u, family, tgt, kind)
            rows = [ch.rows[u.decode_histogram(code)] for code in codes]
            for b in bounds:
                hit = len(memo)
                got = _rows_bound(ch, codes, b, memo)
                seen["memo hits"] += isinstance(b, Fraction) and (
                    len(memo) == hit)
                want = isinstance(b, Fraction) and rational and all(
                    max(col) <= b * min(col) for col in zip(*rows))
                assert got is want is _rows_bound(ch, codes, b, {}), (
                    u, family, tgt, kind, b)
                seen["bounded" if got else "open"] += 1
                seen[kind] += got
                seen["own denominators"] += got and own
                seen["group k=2"] += got and len(tgt) > 1 and family.k == 2
    assert min(seen[k] for k in (
        "open", "bounded", "memo hits", "near_point_pair",
        "shared_private_complement", "own denominators",
        "group k=2")) > 0, seen


@pytest.mark.parametrize("samples", [0, 200])
def test_worstcase_sup_with_the_row_bound_matches_the_oracle(samples):
    # The oracle measures every candidate; the search skips the bounded
    # ones, and still gives the same result, witness, counts and notes,
    # with no sampled half and with 200 draws.
    rng = random.Random(75 + samples)
    cases = list(sup_cases(rng))
    if samples:
        cases = cases[::4]
    for ch, family, target, eta in cases:
        sampler_seed = rng.randrange(1000)
        got, want = (
            sup(ch, family, target, rng=random.Random(sampler_seed),
                samples=samples, eta=eta)
            for sup in (worstcase_sup, oracles.worstcase_sup)
        )
        assert repr(got) == repr(want), (ch.universe, family, target, eta)


def count_measurements(monkeypatch):
    """A Counter of the admitted classes of the search's extremal stream
    ("admitted"), the pair tables it builds ("pair tables") and the joint
    tables it builds from cells ("measured")."""
    calls = collections.Counter()
    stream = audit_module._extremal_tables
    pair_table = audit_module._pair_table
    from_cells = JointTables.from_cells.__func__

    def counted_stream(*args):
        for item in stream(*args):
            calls["admitted"] += item[2] is not None
            yield item

    def counted_pair_table(*args):
        calls["pair tables"] += 1
        return pair_table(*args)

    def counted_from_cells(cls, *args, **kwargs):
        calls["measured"] += 1
        return from_cells(cls, *args, **kwargs)

    monkeypatch.setattr(audit_module, "_extremal_tables", counted_stream)
    monkeypatch.setattr(audit_module, "_pair_table", counted_pair_table)
    monkeypatch.setattr(JointTables, "from_cells",
                        classmethod(counted_from_cells))
    return calls


def test_worstcase_sup_at_a_float_eta_measures_every_admitted_class(
        monkeypatch):
    # A float eta gives float ratios, which the rows never bound: every
    # admitted class is measured, and the result is the oracle's.
    calls = count_measurements(monkeypatch)
    rng = random.Random(77)
    for ch, family, target, eta in list(sup_cases(rng))[::3]:
        calls.clear()
        got = worstcase_sup(ch, family, target, samples=20, eta=float(eta),
                            rng=random.Random(1))
        assert calls["measured"] == calls["admitted"], calls
        want = oracles.worstcase_sup(ch, family, target, samples=20,
                                     eta=float(eta), rng=random.Random(1))
        assert repr(got) == repr(want), (ch.universe, family, target)


def test_row_bound_skips_most_extremal_measurements(monkeypatch):
    # A geometric group target at k=2, n=4: the classes measured first set
    # a best that the rows of most later ones cannot beat, so the search
    # builds far fewer joint tables than its stream admits classes, and it
    # builds a pair class's table only for a class it measures.
    u = uniform_universe(4, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 2))
    family = FamilyParams(k=2)
    calls = count_measurements(monkeypatch)
    got = worstcase_sup(ch, family, (0, 1), samples=0)
    assert calls["admitted"] > 100
    assert calls["measured"] * 4 < calls["admitted"], calls
    assert calls["pair tables"] == calls["measured"], calls
    assert repr(got) == repr(oracles.worstcase_sup(ch, family, (0, 1),
                                                   samples=0))


def test_exceeds_compares_a_float_with_a_fraction_exactly():
    # Floats just below, equal to and just above float(best), with best no
    # float: 1/3 rounds down to its float, 1/10 up, so the equal float
    # loses to the first and beats the second; beyond the float range the
    # float of best is inf.
    huge = Fraction(10**400, 3)
    for best in (Fraction(1, 3), Fraction(1, 10), Fraction(7), huge):
        f = float_or_inf(best)
        floats = (f,) if math.isinf(f) else (
            math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf))
        for r in floats + (0.0, math.inf, 1e308):
            want = (r == math.inf or not math.isinf(r)
                    and Fraction(r) > best)
            assert _exceeds(r, best, f) is want, (r, best)
    assert _exceeds(float(Fraction(1, 10)), Fraction(1, 10), 0.1)
    assert not _exceeds(float(Fraction(1, 3)), Fraction(1, 3), 1 / 3)
    # Either side rational, or both floats: the plain comparison.
    assert _exceeds(Fraction(1, 2), Fraction(1, 3), 1 / 3)
    assert not _exceeds(Fraction(1, 3), 0.5, 0.5)
    assert _exceeds(0.5, 0.25, 0.25)


# ---------------------------------------------------------------------------
# Shared/private-complement candidates read off their weighted sequences
# ---------------------------------------------------------------------------

# Both endpoints, two rational caps and a float one.
PDELTA_EXP_DELTAS = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1),
                     0.7)


def pdelta_universes(rng):
    """n <= 3 with per-individual alphabets, one-symbol ones included, and
    at most 12 sequences: every candidate of each is checked."""
    yield RecordUniverse(((BOT, "a"),))
    yield RecordUniverse(((BOT, "a", "b"), (BOT, "a")))
    yield RecordUniverse((("a", "b"), (BOT,), ("b", BOT)))
    yield RecordUniverse(((BOT, "a"), ("a", "b", "c"), (BOT, "a")))
    for _ in range(2):
        yield per_individual_universe(rng, n_max=3, max_sequences=12)


def test_pdelta_cells_are_read_off_the_construction():
    # Over every complement candidate, for each exp_delta, with and without
    # a band, at a Fraction or a float eta: the construction's one table is
    # the built prior's (as masses over d), and the cells grouped from it
    # are histogram_cells of the built prior (keys, masses, d and order) for
    # the target and for a pair target; and the search's stream, its
    # pattern memo shared over the classes, gives a table to exactly the
    # member classes, and that table charges its support to the JointTables
    # budget and measures max_mi of the built prior. Every complement class
    # of the stream is a candidate.
    rng = random.Random(71)
    f = FamilyParams
    seen = collections.Counter()
    for u in pdelta_universes(rng):
        ch = sup_channel(rng, u, True)
        for i in range(u.n):
            for exp_delta in PDELTA_EXP_DELTAS:
                eta = rng.choice((DEFAULT_ETA, Fraction(1, 3), 0.25))
                branches = pdelta_branches(exp_delta, eta)
                families = (f(exp_delta=exp_delta),
                            f(exp_delta=exp_delta, ell=1, tau=0.7))
                streams = [class_tables(ch, family, (i,), eta,
                                        "shared_private_complement")
                           for family in families]
                for _, *layout in oracles._pdelta_layouts(
                        ch, families[0], (i,), None):
                    prior = extremal_pdelta_prior(u, i, *layout, exp_delta,
                                                  eta=eta)
                    assert repr(prior.tables) == repr(
                        oracles.extremal_pdelta_prior(
                            u, i, *layout, exp_delta, eta=eta).tables)
                    table, d = extremal_pdelta_table(u, i, *layout, branches)
                    assert d == branches[1]
                    assert repr(prior.tables) == repr(({
                        seq: a if d is None else Fraction(a, d)
                        for seq, a in table.items()},))
                    for tgt in {(i,), (0, u.n - 1)}:
                        cells = support_cells(u, table, d, tgt)
                        assert repr(cells) == repr(histogram_cells(
                            prior, tgt)), (u, i, layout, exp_delta, eta)
                    seen["merged"] += prior.support_size() < sum(
                        map(bool, branches[0]))
                    seen["reduced"] += cells[1] not in (None, branches[1])
                    for family, classes in zip(families, streams):
                        m = check_membership(prior, family)
                        seen["banded"] += bool(m.band_count)
                        if tuple(layout) not in classes:
                            continue
                        support = classes.pop(tuple(layout))
                        if not m.ok:
                            seen["filtered"] += 1
                            assert support is None
                            continue
                        seen["admitted"] += 1
                        size, codes, build = support
                        support = build()
                        assert repr(support) == repr((table, d))
                        assert codes == table_codes(u, table)
                        q = _table_max_mi(ch, (i,), None, *support)
                        assert repr(q) == repr(max_mi(prior, ch, i))
                        assert size == prior.support_size()
                        with pytest.raises(EnumerationBudgetError,
                                           match="JointTables"):
                            _table_max_mi(ch, (i,), size - 1, *support)
                        assert _table_max_mi(ch, (i,), size,
                                             *support) is not None
                assert not any(streams), (u, i, exp_delta)
    assert min(seen[k] for k in ("merged", "reduced", "banded", "filtered",
                                 "admitted")) > 0, seen


def test_pdelta_read_off_raises_as_the_construction():
    # The prior and its table check the construction's arguments in the
    # oracle's order: every branch's complement length and symbols, a
    # zero-weight branch's too.
    u = RecordUniverse(((BOT, "a"), (BOT, "a", "b")))
    half = Fraction(1, 2)
    for exp_delta in (half, Fraction(1)):
        branches = pdelta_branches(exp_delta)
        for layout in ((2, "a", BOT, ("b",), ("a",), (BOT,)),
                       (-1, "a", BOT, ("b",), ("a",), (BOT,)),
                       (0, "a", "a", ("b",), ("a",), (BOT,)),
                       (0, "a", BOT, ("b", "a"), ("a",), (BOT,)),
                       (0, "a", BOT, ("b",), (), (BOT,)),
                       (0, "a", BOT, ("b",), ("a",), (BOT, "a")),
                       (0, "b", BOT, ("b",), ("a",), (BOT,)),
                       (0, "a", BOT, ("b",), ("c",), ("c", "a")),
                       (0, "a", BOT, ("b",), ("a",), ("c",))):
            with pytest.raises(ValueError) as want:
                oracles.extremal_pdelta_prior(u, *layout, exp_delta)
            message = re.escape(str(want.value))
            with pytest.raises(type(want.value), match=message):
                extremal_pdelta_prior(u, *layout, exp_delta)
            with pytest.raises(type(want.value), match=message):
                extremal_pdelta_table(u, *layout, branches)
    layout = (0, "a", BOT, ("b",), ("a",), (BOT,))
    for exp_delta, eta in ((Fraction(3, 2), DEFAULT_ETA), (-0.5, DEFAULT_ETA),
                           (math.nan, DEFAULT_ETA), (True, DEFAULT_ETA),
                           (half, 0), (half, Fraction(1)), (half, 1.5)):
        with pytest.raises(ValueError) as want:
            oracles.extremal_pdelta_prior(u, *layout, exp_delta, eta=eta)
        message = re.escape(str(want.value))
        with pytest.raises(type(want.value), match=message):
            extremal_pdelta_prior(u, *layout, exp_delta, eta=eta)
        with pytest.raises(type(want.value), match=message):
            pdelta_branches(exp_delta, eta)


def test_worstcase_sup_complement_families_match_the_oracle():
    # No block limit, so the complement candidates join the search: each
    # exp_delta, with and without a band, on rational and float channels.
    rng = random.Random(72)
    f = FamilyParams
    for u in (uniform_universe(2, (BOT, "a", "b")),
              RecordUniverse(((BOT, "a"), (BOT, "a", "b"), (BOT, "a"))),
              RecordUniverse(((BOT, "a", "b"), (BOT, "a"), (BOT, "a")))):
        for exact in (True, False):
            ch = sup_channel(rng, u, exact)
            for exp_delta in PDELTA_EXP_DELTAS:
                family = rng.choice((f(exp_delta=exp_delta),
                                     f(exp_delta=exp_delta, ell=1, tau=0.7)))
                eta = rng.choice((DEFAULT_ETA, Fraction(1, 3)))
                seed = rng.randrange(1000)
                got, want = (
                    sup(ch, family, 0, rng=random.Random(seed), samples=3,
                        eta=eta)
                    for sup in (worstcase_sup, oracles.worstcase_sup)
                )
                assert repr(got) == repr(want), (u, family, eta, exact)


def counted_calls(monkeypatch, calls):
    """Count JointPrior builds under "prior" and _sigma loops under
    "sigma" in calls while the test runs."""
    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(JointPrior, "__post_init__",
                        counted("prior", JointPrior.__post_init__))
    monkeypatch.setattr(prior_module, "_sigma",
                        counted("sigma", prior_module._sigma))


def test_search_decides_complement_membership_once_per_pattern(monkeypatch):
    # The complement candidates of a Fraction exp_delta are measured from
    # their one table, and membership is read off that table once per
    # equality pattern: at n = 3 the 2268 complement classes share 25
    # patterns (five per other individual), so the extremal search runs one
    # sigma loop for each and builds no JointPrior.
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    family = FamilyParams(exp_delta=Fraction(3, 4))
    calls = collections.Counter()
    classes = {key for key, *_ in oracles._pdelta_layouts(ch, family, (0,),
                                                          None)}
    counted_calls(monkeypatch, calls)
    sup = worstcase_sup(ch, family, 0, samples=0)
    assert sup.evaluated["extremal"] > 0
    assert sup.evaluated["filtered_candidates"] > 0
    assert len(classes) == 2268
    assert calls == {"sigma": 25}


@pytest.mark.parametrize("audit, builds", [
    (lambda ch, family: worstcase_sup(ch, family, 0, samples=0), 0),
    (lambda ch, family: worstcase_sup(ch, family, 0, samples=20,
                                      rng=random.Random(5)), 1),
    (lambda ch, family: [tightness_pk(ch, k) for k in (1, 2, 3)], 0),
], ids=["extremal", "sampled", "tightness"])
def test_audits_build_no_prior_but_the_largest_sample(monkeypatch, audit,
                                                      builds):
    # The extremal constructions are measured from their cells; only the
    # largest sampled member is rebuilt as a JointPrior, for its check.
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    calls = collections.Counter()
    counted_calls(monkeypatch, calls)
    audit(ch, FamilyParams(exp_delta=Fraction(3, 4)))
    assert calls["prior"] == builds


def test_tightness_measures_the_pair_prior():
    # The witness pair's leak, read off its cells, is max_mi of
    # extremal_pair_prior about the first differing coordinate, at a
    # Fraction and at a float eta, on rational and float channels, some
    # with zero entries (an infinite level).
    rng = random.Random(24)
    checked = 0
    while checked < 30:
        u = per_individual_universe(rng, n_max=4, max_sequences=60)
        if len(u.achievable_histograms()) < 2:
            continue
        if rng.random() < 0.5:
            ch = random_channel(rng, u, zero_prob=0.3)
        else:
            rows = {}
            for h in u.achievable_histograms():
                weights = [rng.randint(0, 3) for _ in range(3)]
                weights[rng.randrange(3)] += 1
                rows[h] = tuple(Fraction(w, sum(weights)) for w in weights)
            ch = Channel(u, (0, 1, 2), rows)
        for k in range(1, u.n + 1):
            eta = rng.choice((DEFAULT_ETA, Fraction(1, 3), 0.25))
            t = tightness_pk(ch, k, eta=eta)
            s_num = t.prior_summary["numerator_sequence"]
            s_den = t.prior_summary["denominator_sequence"]
            assert t.target == next(
                i for i, (a, b) in enumerate(zip(s_num, s_den)) if a != b)
            want = max_mi(extremal_pair_prior(u, s_num, s_den, eta=eta), ch,
                          t.target)
            assert repr(t.achieved_ratio) == repr(want.ratio), (u, k, eta)
        checked += 1


# ---------------------------------------------------------------------------
# Sampled members: one plan per block layout against max_mi
# ---------------------------------------------------------------------------


def plan_universe(rng):
    """One to four individuals over orderings of subsets of {BOT, a, b},
    the first one holding a; sometimes one alphabet shared by all, which
    randomized response needs."""
    n = rng.randint(1, 4)
    alphas = [tuple(rng.sample((BOT, "a", "b"), rng.randint(1, 3)))
              for _ in range(n)]
    if "a" not in alphas[0]:
        alphas[0] += ("a",)
    if rng.random() < 0.4:
        alphas = [alphas[0]] * n
    return RecordUniverse(tuple(alphas))


def plan_channels(rng, u):
    """Geometric, randomized-response (on a shared alphabet) and matrix
    channels, each with rational and with float rows."""
    yield geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    yield geometric_counting_channel(u, "a", ratio=0.37)
    if len(set(u.alphabets)) == 1:
        yield randomized_response_channel(u, keep_prob=Fraction(2, 3))
        yield randomized_response_channel(u, keep_prob=0.6)
    hists = u.achievable_histograms()
    n_out = rng.randint(1, 3)
    yield Channel(u, tuple(range(n_out)),
                  random_rational_rows(rng, hists, n_out))
    yield random_channel(rng, u, out_range=(2, 3), zero_prob=0.3)


def plan_families(n):
    """k only, k with a dependence cap, bands at tau = 0 (every individual,
    so all masses are Fractions, and one) and at 0.3, and no constraint."""
    f = FamilyParams
    return (f(k=1), f(k=n), f(k=n, exp_delta=0.9),
            f(k=2, exp_delta=Fraction(1, 2)), f(ell=n, tau=0.0),
            f(k=2, ell=1, tau=0.0), f(k=2, ell=1, tau=0.3), f())


def test_plan_matches_max_mi_on_sampled_members():
    # Each kind of member, planned on its positive cells as the search
    # plans it: all-float, mixed (a tau = 0 band's Fraction(1, m)
    # singletons beside Dirichlet floats), all-exact (every individual in
    # a tau = 0 band), and one whose band mass underflowed to 0.0 and was
    # dropped (tau = 700).
    rng = random.Random(91)
    kinds = collections.Counter()
    exact = 0
    for _ in range(12):
        u = plan_universe(rng)
        for ch in plan_channels(rng, u):
            for family in plan_families(u.n) + (
                    FamilyParams(k=1, ell=u.n, tau=700.0),):
                for target in (0, tuple(range(u.n))):
                    tgt = normalize_target(u.n, target)
                    plans = {}
                    for _ in range(4):
                        p = sample_prior(u, family, rng)
                        if p is None:
                            continue
                        masses = [list(t.values()) for t in p.tables]
                        keep = tuple(tuple(m > 0 for m in ms)
                                     for ms in masses)
                        plan = plans.get((p.blocks, keep))
                        if plan is None:
                            plan = plans[p.blocks, keep] = MaxMiPlan(
                                p.blocks, ch, tgt, [
                                    list(itertools.compress(
                                        block_cells(u, b), ks))
                                    for b, ks in zip(p.blocks, keep)])
                        want = max_mi(p, ch, tgt)
                        got = plan.max_mi_masses(
                            [[m for m in ms if m > 0] for ms in masses])
                        assert repr(got) == repr(want), (
                            u, ch.rows, family, tgt, p.tables)
                        exact += isinstance(want.ratio, Fraction)
                        floats = {isinstance(m, float)
                                  for ms in masses for m in ms}
                        kinds["mixed" if len(floats) > 1 else
                              "float" if True in floats else "exact"] += 1
                        kinds["dropped"] += not all(map(all, keep))
    assert exact > 0
    assert min(kinds[k] for k in ("float", "mixed", "exact",
                                  "dropped")) > 0, kinds


def test_worstcase_sup_with_many_samples_matches_the_oracle():
    rng = random.Random(92)
    for ch, family, target, eta in itertools.islice(sup_cases(rng), 0, None,
                                                    3):
        sampler_seed = rng.randrange(1000)
        got, want = (
            sup(ch, family, target, rng=random.Random(sampler_seed),
                samples=200, eta=eta)
            for sup in (worstcase_sup, oracles.worstcase_sup)
        )
        assert repr(got) == repr(want), (ch.universe, family, target, eta)


def test_sampled_members_charge_their_support_to_the_budget():
    # With k = 1 every member has singleton blocks over {BOT, a, b}.
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))

    def run(budget):
        return [q for q, _ in _sampled_members(
            ch, FamilyParams(k=1), (0,), random.Random(0), 5, budget)]

    with pytest.raises(EnumerationBudgetError, match="JointTables"):
        run(26)
    got = run(27)
    assert len(got) == 5 and None not in got


def test_draws_match_the_build_and_check_sampler():
    # The draw takes sample_prior's rng stream, tries and rejection: the
    # member that building and checking a prior per try keeps, or None,
    # with the generator left in the same state. tau = 700 underflows band
    # masses to 0.0; ell above n admits nothing.
    rng = random.Random(93)
    zero_masses = 0
    for _ in range(12):
        u = plan_universe(rng)
        f = FamilyParams
        families = plan_families(u.n) + (
            f(k=1, ell=u.n, tau=700.0), f(ell=1, tau=0.3, exp_delta=0.8),
            f(ell=u.n + 1, tau=1.0))
        for family in families:
            seed = rng.randrange(1 << 30)
            drawn, public, built = (random.Random(seed) for _ in range(3))
            for _ in range(4):
                got = draw_member(u, family, drawn, tries=20)
                prior = sample_prior(u, family, public, tries=20)
                want = oracles.sample_prior(u, family, built, tries=20)
                assert drawn.getstate() == built.getstate() == public.getstate()
                if want is None:
                    assert got is None and prior is None
                    continue
                blocks, masses = got
                assert blocks == prior.blocks == want.blocks
                assert repr(prior.tables) == repr(want.tables), family
                assert repr(masses) == repr(
                    [list(t.values()) for t in want.tables])
                assert [block_cells(u, b) for b in blocks] == [
                    list(t) for t in want.tables]
                zero_masses += any(0 in ms for ms in masses)
    assert zero_masses > 0


def test_draws_leave_singleton_blocks_out_of_sigma(monkeypatch):
    # A singleton's records share the empty complement, so its overlap is
    # exactly 1 and the draw's membership reads sigma on the other blocks.
    u = uniform_universe(3, (BOT, "a", "b"))
    layouts = []
    real = prior_module._sigma

    def recorded(layout):
        layout = list(layout)
        layouts.append(layout)
        return real(layout)

    monkeypatch.setattr(prior_module, "_sigma", recorded)
    rng = random.Random(94)
    for family in (FamilyParams(k=2, exp_delta=0.9),
                   FamilyParams(k=1, exp_delta=Fraction(1, 2))):
        for _ in range(20):
            draw_member(u, family, rng)
    blocks = [plan.block for layout in layouts for plan, _ in layout]
    assert layouts and blocks
    assert all(len(b) > 1 for b in blocks)


def test_sampler_draws_match_the_per_call_draw():
    # One MemberSampler per family makes every draw, as the search keeps
    # one per call, and draw_member makes one per call; both give the
    # per-call draw's (blocks, masses) bit for bit, reject where it rejects
    # (None at a low tries) and leave the generator where it leaves it.
    # The universes mix alphabets, one of a single symbol; tau = 400 draws
    # subnormal band masses and tau = 0 exact ones; ell above n admits
    # nothing.
    f = FamilyParams
    universes = (
        uniform_universe(3, (BOT, "a", "b")),
        RecordUniverse(((BOT, "a", "b"), (BOT,), ("a", BOT))),
        RecordUniverse((("a", BOT), (BOT, "a", "b"), ("b",), ("b", BOT, "a"))),
    )
    rng = random.Random(96)
    kinds = collections.Counter()
    for u in universes:
        bands = ((None, None), (1, 0), (2, 0.1), (u.n, 400), (u.n + 1, 1.0))
        for k, exp_delta, (ell, tau) in itertools.product(
                (1, 2, None),
                (None, 0, Fraction(1, 8), Fraction(1, 2), 0.875), bands):
            family = f(k=k, exp_delta=exp_delta, ell=ell, tau=tau)
            sampler = MemberSampler(u, family)
            seed = rng.randrange(1 << 30)
            kept, once, want_rng = (random.Random(seed) for _ in range(3))
            for _ in range(6):
                got = sampler.draw(kept, tries=3)
                one_shot = draw_member(u, family, once, tries=3)
                want = oracles.draw_member(u, family, want_rng, tries=3)
                assert kept.getstate() == once.getstate() == want_rng.getstate()
                assert repr(got) == repr(one_shot) == repr(want), family
                if want is None:
                    kinds["rejected"] += 1
                    continue
                blocks, masses = want
                kinds["accepted"] += 1
                kinds["joint"] += max(map(len, blocks)) > 1
                kinds["exact"] += any(isinstance(p, Fraction)
                                      for ms in masses for p in ms)
                kinds["subnormal or zero"] += any(
                    p < sys.float_info.min for ms in masses for p in ms)
                kinds["single symbol in a joint block"] += any(
                    len(b) > 1 and any(len(u.alphabets[i]) == 1 for i in b)
                    for b in blocks)
    assert len(kinds) == 6 and min(kinds.values()) > 0, kinds


def test_sigma_through_index_plans_matches_the_dict_loop():
    # sigma reads each block through an index plan of its cells; the
    # oracle gathers marginals and conditionals into dicts per call. Value
    # and witness are equal, of the same types, on float and Fraction
    # tables with zero cells, on the sparse tables of prior_from_flat, on
    # tables listed out of product order, and on blocks of up to three
    # individuals.
    rng = random.Random(95)
    kinds = collections.Counter()
    for exact in (True, False):
        for _ in range(80):
            prior = block_prior(rng, exact)
            u = prior.universe
            shuffled = tuple(dict(rng.sample(list(t.items()), len(t)))
                             for t in prior.tables)
            sparse = prior_from_flat(u, prior.blocks, [
                [t.get(cell, 0) for cell in block_cells(u, b)]
                for b, t in zip(prior.blocks, prior.tables)])
            for p in (prior, JointPrior(u, prior.blocks, shuffled), sparse):
                got = sigma(p)
                want = oracles.dict_sigma(u.alphabets, [
                    (b, list(t.items())) for b, t in zip(p.blocks, p.tables)])
                assert got == want and type(got[0]) is type(want[0]), (
                    p.blocks, p.tables)
            kinds["zero cells"] += any(0 in t.values() for t in prior.tables)
            kinds["sparse"] += any(len(t) < len(block_cells(u, b))
                                   for b, t in zip(sparse.blocks,
                                                   sparse.tables))
            kinds["reordered"] += any(list(t) != list(s)
                                      for t, s in zip(prior.tables, shuffled))
            kinds["three individuals"] += prior.max_block_size() == 3
            kinds["witness"] += got[1] is not None
    assert len(kinds) == 5 and min(kinds.values()) > 0, kinds


def test_plan_checks_each_members_masses():
    u = uniform_universe(2, (BOT, "a"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    blocks = ((0,), (1,))
    plan = MaxMiPlan(blocks, ch, (0,), [block_cells(u, b) for b in blocks])
    half = Fraction(1, 2)
    good = [[half, half], [0.25, 0.75]]
    assert repr(plan.max_mi_masses(good)) == repr(
        max_mi(layout_prior(u, blocks, good), ch, 0))
    for bad in ([[half, half]], [[half, half], [1.0]],
                [[half, half], [0.0, 1.0]], [[half, half], [-0.25, 1.25]],
                [[half, half], [0.5, 0.6]]):
        with pytest.raises(LeakageError):
            plan.max_mi_masses(bad)


def test_worstcase_sup_measures_members_with_a_zero_mass():
    # At tau = 400 a band mass can underflow to 0.0; such a member is
    # measured on its prior, which drops the zero cells.
    u = uniform_universe(2, (BOT, "a"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    family = FamilyParams(k=1, ell=2, tau=400)
    got, want = (sup(ch, family, 0, rng=random.Random(3), samples=300)
                 for sup in (worstcase_sup, oracles.worstcase_sup))
    assert repr(got) == repr(want)
    rng = random.Random(3)
    assert any(0 in ms for _ in range(300)
               for ms in draw_member(u, family, rng)[1])


def test_largest_member_with_a_zero_mass_is_replayed(monkeypatch):
    # The largest of these 20 members has a band mass that underflows to
    # 0.0, so its plan takes the positive cells alone, and the replay
    # checks that plan's measurement against max_mi on the member's prior.
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    family = FamilyParams(k=1, ell=3, tau=400)
    replayed = []

    def recorded(channel, family, tgt, budget, rng, q, blocks, checkpoint,
                 skip):
        draws = random.Random()
        draws.setstate(checkpoint)
        for _ in range(skip):
            draw_member(u, family, draws)
        replayed.append(draw_member(u, family, draws))
        _check_largest_sample(channel, family, tgt, budget, rng, q, blocks,
                              checkpoint, skip)

    monkeypatch.setattr(audit_module, "_check_largest_sample", recorded)
    got, want = (sup(ch, family, 0, rng=random.Random(2), samples=20)
                 for sup in (worstcase_sup, oracles.worstcase_sup))
    assert repr(got) == repr(want)
    [(_, masses)] = replayed
    assert any(0.0 in ms for ms in masses)


def test_search_checks_its_largest_sample_without_moving_the_rng():
    # The largest sampled member is rebuilt through sample_prior from a
    # copy of the generator; the caller's generator ends where the
    # build-and-check oracle leaves it.
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    family = FamilyParams(k=2)
    got_rng, want_rng = random.Random(8), random.Random(8)
    got = worstcase_sup(ch, family, 0, rng=got_rng, samples=30)
    want = oracles.worstcase_sup(ch, family, 0, rng=want_rng, samples=30)
    assert repr(got) == repr(want)
    assert got_rng.getstate() == want_rng.getstate()


def test_largest_sample_check_replays_from_a_checkpoint():
    u = uniform_universe(3, (BOT, "a", "b"))
    ch = geometric_counting_channel(u, "a", ratio=Fraction(1, 3))
    family = FamilyParams(k=2)
    rng = random.Random(9)
    checkpoint = rng.getstate()
    draws = random.Random(9)
    members = [draw_member(u, family, draws) for _ in range(3)]
    measured = [max_mi(layout_prior(u, *m), ch, 0) for m in members]
    check = functools.partial(_check_largest_sample, ch, family, (0,), None,
                              rng)
    for skip, (q, (blocks, _)) in enumerate(zip(measured, members)):
        check(q, blocks, checkpoint, skip)
    assert rng.getstate() == checkpoint
    singletons = ((0,), (1,), (2,))
    other = max_mi(layout_prior(u, singletons, [[Fraction(1, 3)] * 3] * 3),
                   ch, 0)
    q, blocks = measured[1], members[1][0]
    for args in ((other, blocks, checkpoint, 1),
                 (q, ((0, 1, 2),), checkpoint, 1),
                 (q, blocks, checkpoint, 2),
                 (q, blocks, random.Random(10).getstate(), 1)):
        with pytest.raises(AuditError, match="largest sampled member"):
            check(*args)


# ---------------------------------------------------------------------------
# Dependence and averaging scans: rows by code against every sequence
# ---------------------------------------------------------------------------


def dependence_universe(rng, n_min):
    """Up to four individuals, each with its own ordering of a non-empty
    subset of {BOT, a, b}."""
    n = rng.randint(n_min, 4)
    return RecordUniverse(tuple(
        tuple(rng.sample((BOT, "a", "b"), rng.randint(1, 3)))
        for _ in range(n)
    ))


def dependence_channels(rng, u):
    """Rational rows with zero cells, float rows, a mix of both, and point
    masses that alternate between int, Fraction and float entries, so
    equal values of different types tie."""
    hists = u.achievable_histograms()
    n_out = rng.randint(1, 4)
    exact = random_rational_rows(rng, hists, n_out)
    floats = random_channel(rng, u, out_range=(n_out, n_out), zero_prob=0.3)
    outcomes = floats.outcomes
    mixed = {h: floats.rows[h] if i % 2 else exact[h]
             for i, h in enumerate(hists)}
    kinds = (int, Fraction, float)
    point = {}
    for i, h in enumerate(hists):
        c = rng.randrange(n_out)
        point[h] = tuple(kinds[i % 3](j == c) for j in range(n_out))
    for rows in (exact, floats.rows, mixed, point):
        yield Channel(u, outcomes, rows)


def in_band_marginal(alphabet, exact):
    """A marginal within the tau = 0.2 band: the first symbol a tenth above
    uniform, the rest sharing what is left."""
    m = len(alphabet)
    if m == 1:
        return {alphabet[0]: 1}
    top = Fraction(11, 10 * m)
    rest = (1 - top) / (m - 1)
    if not exact:
        top, rest = float(top), float(rest)
    return {s: top if s == alphabet[0] else rest for s in alphabet}


def test_necessary_pdelta_matches_the_sequence_oracle():
    rng = random.Random(81)
    grid = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), 0.7)
    for _ in range(30):
        u = dependence_universe(rng, 1)
        for ch in dependence_channels(rng, u):
            for exp_delta in grid:
                got, want = (
                    scan(ch, exp_delta=exp_delta, exp_epsilon=3)
                    for scan in (necessary_pdelta, oracles.necessary_pdelta)
                )
                assert repr(got) == repr(want), (u, ch.rows, exp_delta)


def test_sufficient_nk_matches_the_sequence_oracle():
    rng = random.Random(82)
    for _ in range(8):
        u = dependence_universe(rng, 2)
        for ch in dependence_channels(rng, u):
            for k in range(1, u.n):
                options = [{"tau": tau} for tau in (0.0, 0.1, 1e-12)]
                for exact in (False, True):
                    chosen = rng.sample(range(u.n), rng.randint(1, u.n))
                    options.append({"tau": 0.2, "marginals": {
                        j: in_band_marginal(u.alphabets[j], exact)
                        for j in chosen}})
                options.append({"tau": 0.2, "marginals": {}})
                for opts in options:
                    got, want = (
                        scan(ch, k, exp_epsilon=3, **opts)
                        for scan in (sufficient_nk, oracles.sufficient_nk)
                    )
                    assert repr(got) == repr(want), (u, ch.rows, k, opts)


def test_sufficient_nk_keeps_the_first_of_tied_free_rows():
    # Individual 1 lists a before BOT, so for individual 0 the free row at
    # one a (0.5) comes before the one at none (1/2): the numerator is the
    # float, and the ratio over 1/4 is 2.0, not Fraction(2).
    u = RecordUniverse(((BOT, "a"), ("a", BOT)))
    f = Fraction
    ch = Channel(u, (0, 1), {(0,): (f(1, 2), f(1, 2)), (1,): (0.5, 0.5),
                             (2,): (f(1, 4), f(3, 4))})
    v = sufficient_nk(ch, 1, exp_epsilon=3)
    assert repr(v) == repr(oracles.sufficient_nk(ch, 1, exp_epsilon=3))
    assert repr(v.measured_ratio) == "2.0"
    assert v.witness["individual"] == 0


def test_sufficient_nk_notes_a_corner_fallback_once():
    # Eight averaged individuals of {BOT, a}, each with two band corners
    # besides uniform, make 3**8 > 4096 weight choices for every one of the
    # 10 * 9 (individual, averaging set) pairs.
    u = uniform_universe(10, (BOT, "a"))
    ch = matrix_channel(u, ["y"], {h: [1] for h in u.achievable_histograms()})
    v = sufficient_nk(ch, 1, exp_epsilon=3, tau=1e-12)
    fallback = "corner stress set too large; fell back to uniform only"
    assert v.notes.count(fallback) == 1
    assert len(v.notes) == 2
    assert v.measured_ratio == 1 and not v.conclusive
