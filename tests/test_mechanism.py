import itertools
import math
import random
from fractions import Fraction

import pytest

from privlens import (
    BOT,
    Channel,
    ChannelError,
    EnumerationBudgetError,
    RecordUniverse,
    change_histogram_pairs,
    change_sequence_pairs,
    dp_epsilon,
    geometric_counting_channel,
    l1_distance,
    lipschitz_ratio,
    matrix_channel,
    postprocess,
    randomized_response_channel,
    uniform_universe,
)

from gen import random_channel, random_universe


def counting_universe(n):
    return uniform_universe(n, (BOT, "a"))


# ---------------------------------------------------------------------------
# channel validation
# ---------------------------------------------------------------------------


def test_channel_requires_every_achievable_row():
    u = counting_universe(1)
    with pytest.raises(ChannelError):
        Channel(u, (0, 1), {(0,): (Fraction(1, 2), Fraction(1, 2))})


def test_channel_rejects_unachievable_rows():
    u = counting_universe(1)
    rows = {
        (0,): (Fraction(1),),
        (1,): (Fraction(1),),
        (5,): (Fraction(1),),
    }
    with pytest.raises(ChannelError):
        Channel(u, (0,), rows)


def test_channel_rejects_bad_row_shape_and_mass():
    u = counting_universe(1)
    with pytest.raises(ChannelError):
        Channel(u, (0, 1), {(0,): (1,), (1,): (Fraction(1, 2), Fraction(1, 2))})
    with pytest.raises(ChannelError):
        Channel(
            u,
            (0, 1),
            {(0,): (Fraction(1, 2), Fraction(1, 3)), (1,): (Fraction(1, 2), Fraction(1, 2))},
        )
    with pytest.raises(ChannelError):
        Channel(
            u,
            (0, 1),
            {(0,): (Fraction(3, 2), Fraction(-1, 2)), (1,): (Fraction(1, 2), Fraction(1, 2))},
        )


def test_channel_rejects_a_nan_entry():
    # NaN < 0 and NaN - 1 > TOL are both false; the checks are negated.
    u = counting_universe(2)
    rows = {(0,): (math.nan, 0.5), (1,): (0.5, 0.5), (2,): (0.5, 0.5)}
    with pytest.raises(ChannelError, match="negative probability in row"):
        Channel(u, ("x", "y"), rows)


def test_channel_rejects_duplicate_outcome_labels():
    u = counting_universe(1)
    rows = {(0,): (Fraction(1, 2), Fraction(1, 2)), (1,): (Fraction(1, 2), Fraction(1, 2))}
    with pytest.raises(ChannelError):
        Channel(u, ("x", "x"), rows)


@pytest.mark.parametrize("label", [[1], {"x": 1}])
def test_channel_rejects_unhashable_outcome_labels(label):
    u = counting_universe(1)
    with pytest.raises(ChannelError, match="must be hashable"):
        matrix_channel(u, ("x", label), {"0": ["1/2", "1/2"], "1": ["1/2", "1/2"]})


def test_matrix_channel_accepts_string_keys():
    u = counting_universe(1)
    ch = matrix_channel(u, ("lo", "hi"), {"0": ["3/4", "1/4"], "1": [0.25, 0.75]})
    assert ch.row((0,)) == (Fraction(3, 4), Fraction(1, 4))
    assert ch.outcome_index("hi") == 1
    with pytest.raises(ChannelError):
        ch.row((7,))
    with pytest.raises(ChannelError):
        ch.outcome_index("mid")


# ---------------------------------------------------------------------------
# geometric counting mechanism
# ---------------------------------------------------------------------------


def test_geometric_third_rows_are_exact():
    ch = geometric_counting_channel(counting_universe(2), "a", ratio=Fraction(1, 3))
    assert ch.outcomes == (0, 1, 2)
    assert ch.row((0,)) == (Fraction(3, 4), Fraction(1, 6), Fraction(1, 12))
    assert ch.row((1,)) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert ch.row((2,)) == (Fraction(1, 12), Fraction(1, 6), Fraction(3, 4))


def folded_tail_row(alpha, c, m, depth=500):
    """Clamp a two-sided geometric walk started at c into [0, m] by direct

    series summation. Slow and explicit on purpose."""
    base = (1.0 - alpha) / (1.0 + alpha)
    row = [0.0] * (m + 1)
    for z in range(-depth, depth + 1):
        j = min(max(c + z, 0), m)
        row[j] += base * alpha ** abs(z)
    return row


def test_geometric_rows_match_tail_sums():
    for n in (1, 2, 3, 4):
        u = counting_universe(n)
        for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            ch = geometric_counting_channel(u, "a", ratio=alpha)
            for h in u.achievable_histograms():
                want = folded_tail_row(float(alpha), h[0], n)
                got = ch.row(h)
                assert len(got) == n + 1
                for wj, gj in zip(want, got):
                    assert abs(wj - float(gj)) < 1e-12


def test_geometric_max_count_extends_the_range():
    ch = geometric_counting_channel(
        counting_universe(1), "a", ratio=Fraction(1, 2), max_count=3
    )
    assert ch.outcomes == (0, 1, 2, 3)
    want = folded_tail_row(0.5, 1, 3)
    for wj, gj in zip(want, ch.row((1,))):
        assert abs(wj - float(gj)) < 1e-12


def test_geometric_epsilon_spelling():
    ch = geometric_counting_channel(counting_universe(2), "a", epsilon=0.7)
    scan = dp_epsilon(ch)
    assert abs(scan.nats - 0.7) < 1e-9


def test_geometric_argument_errors():
    u = counting_universe(2)
    with pytest.raises(ChannelError):
        geometric_counting_channel(u, "a")
    with pytest.raises(ChannelError):
        geometric_counting_channel(u, "a", ratio=Fraction(1, 3), epsilon=1.0)
    with pytest.raises(ChannelError):
        geometric_counting_channel(u, "a", ratio=Fraction(3, 2))
    with pytest.raises(ChannelError):
        geometric_counting_channel(u, "a", epsilon=0.0)
    with pytest.raises(ChannelError, match="epsilon must be positive"):
        geometric_counting_channel(u, "a", epsilon=math.nan)
    with pytest.raises(ChannelError):
        geometric_counting_channel(u, "z", ratio=Fraction(1, 3))
    with pytest.raises(ChannelError):
        geometric_counting_channel(u, "a", ratio=Fraction(1, 3), max_count=1)


# ---------------------------------------------------------------------------
# randomized response
# ---------------------------------------------------------------------------


def rr_output_distribution(universe, keep, seq):
    # Brute force over every perturbed sequence; exact fractions.
    m = len(universe.alphabets[0])
    base = (1 - keep) / m
    out = {}
    for ws in itertools.product(universe.alphabets[0], repeat=universe.n):
        p = Fraction(1)
        for v, w in zip(seq, ws):
            p = p * ((keep + base) if w == v else base)
        h = universe.to_histogram(ws, validate=False)
        out[h] = out.get(h, 0) + p
    return out


def test_rr_single_record_keep_half():
    u = counting_universe(1)
    ch = randomized_response_channel(u, Fraction(1, 2))
    assert ch.outcomes == ("0", "1")
    assert ch.row((0,)) == (Fraction(3, 4), Fraction(1, 4))
    assert ch.row((1,)) == (Fraction(1, 4), Fraction(3, 4))
    assert dp_epsilon(ch).ratio == 3


def test_rr_rows_match_sequence_enumeration():
    rng = random.Random(13)
    for _ in range(12):
        u = random_universe(rng, shared=True)
        keep = Fraction(rng.randint(1, 9), 10)
        ch = randomized_response_channel(u, keep)
        for h in u.achievable_histograms():
            row = dict(zip(u.achievable_histograms(), ch.row(h)))
            for seq in u.sequences_with_histogram(h):
                want = rr_output_distribution(u, keep, seq)
                for out_h in u.achievable_histograms():
                    assert row[out_h] == want.get(out_h, 0)


def test_rr_needs_a_shared_alphabet():
    u = RecordUniverse(((BOT, "a"), (BOT, "a", "b")))
    with pytest.raises(ChannelError):
        randomized_response_channel(u, Fraction(1, 2))


# ---------------------------------------------------------------------------
# change-metric neighborhoods
# ---------------------------------------------------------------------------


def test_one_record_universe_pairs_include_replacements():
    u = uniform_universe(1, (BOT, "a", "b"))
    pairs = change_histogram_pairs(u, 1)
    assert ((0, 1), (1, 0)) in pairs
    assert len(pairs) == 3
    assert l1_distance((1, 0), (0, 1)) == 2


def test_pairs_collapse_to_all_pairs_at_k_equals_n():
    rng = random.Random(41)
    for _ in range(10):
        u = random_universe(rng)
        hists = u.achievable_histograms()
        everything = sorted(itertools.combinations(hists, 2))
        assert change_histogram_pairs(u, u.n) == everything
        assert change_histogram_pairs(u, u.n + 3) == everything


def bfs_hops(hists, edges):
    adj = {h: set() for h in hists}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {}
    for src in hists:
        d = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in d:
                        d[y] = d[x] + 1
                        nxt.append(y)
            frontier = nxt
        dist[src] = d
    return dist


def test_pairs_match_bfs_on_shared_alphabets():
    # On a shared alphabet, k record changes coincide with k hops along the
    # one-change graph, so distance-filtered BFS pairs are an independent
    # reference.
    rng = random.Random(67)
    for _ in range(12):
        u = random_universe(rng, shared=True)
        hists = u.achievable_histograms()
        edges = change_histogram_pairs(u, 1)
        dist = bfs_hops(hists, edges)
        for k in range(1, u.n + 1):
            want = sorted(
                (a, b)
                for a, b in itertools.combinations(hists, 2)
                if dist[a].get(b, math.inf) <= k
            )
            assert change_histogram_pairs(u, k) == want


def test_sequence_pairs_are_symmetric_and_k_filtered():
    u = counting_universe(2)
    pairs1 = change_sequence_pairs(u, 1)
    assert len(pairs1) == 8
    for a, b in pairs1:
        assert (b, a) in pairs1
    assert ((BOT, BOT), ("a", "a")) not in pairs1
    pairs2 = change_sequence_pairs(u, 2)
    assert ((BOT, BOT), ("a", "a")) in pairs2
    assert set(pairs1) <= set(pairs2)


def test_change_pair_budget_error():
    u = uniform_universe(3, (BOT, "a", "b"))
    with pytest.raises(EnumerationBudgetError):
        change_histogram_pairs(u, 1, budget=5)


# ---------------------------------------------------------------------------
# ratio scans
# ---------------------------------------------------------------------------


def test_geometric_one_change_ratio_is_three():
    ch = geometric_counting_channel(counting_universe(2), "a", ratio=Fraction(1, 3))
    scan = dp_epsilon(ch)
    assert scan.ratio == 3
    assert abs(scan.nats - math.log(3)) < 1e-12
    assert scan.witness() is not None


def test_geometric_two_change_ratio_is_nine():
    ch = geometric_counting_channel(counting_universe(2), "a", ratio=Fraction(1, 3))
    scan = lipschitz_ratio(ch, 2)
    assert scan.ratio == 9
    assert scan.num_hist in ((0,), (2,))


def test_lipschitz_is_monotone_in_k():
    rng = random.Random(101)
    for _ in range(15):
        u = random_universe(rng)
        ch = random_channel(rng, u)
        prev = None
        for k in range(1, u.n + 1):
            cur = float(lipschitz_ratio(ch, k).ratio)
            if prev is not None:
                assert cur >= prev - 1e-12
            prev = cur


def test_scan_reports_infinity_on_hard_zero():
    u = counting_universe(1)
    ch = matrix_channel(u, (0, 1), {(0,): [1, 0], (1,): [0, 1]})
    scan = dp_epsilon(ch)
    assert scan.ratio == math.inf
    assert scan.nats == math.inf


def test_scan_skips_zero_over_zero():
    u = counting_universe(1)
    ch = matrix_channel(
        u, (0, 1, 2), {(0,): ["1/2", "1/2", 0], (1,): ["1/4", "3/4", 0]}
    )
    scan = dp_epsilon(ch)
    assert scan.ratio == 2


def test_scan_on_single_row_universe_is_vacuous():
    u = uniform_universe(1, ("a",))
    ch = matrix_channel(u, (0, 1), {(1,): ["1/2", "1/2"]})
    scan = dp_epsilon(ch)
    assert scan.ratio == 1
    assert scan.witness() is None
    assert "vacuous" in scan.note


# ---------------------------------------------------------------------------
# postprocessing
# ---------------------------------------------------------------------------


def test_postprocess_merges_mass_exactly():
    ch = geometric_counting_channel(counting_universe(2), "a", ratio=Fraction(1, 3))
    merged = postprocess(ch, {0: "low", 1: "low", 2: "high"})
    assert merged.outcomes == ("low", "high")
    assert merged.row((0,)) == (Fraction(11, 12), Fraction(1, 12))


def test_postprocess_never_increases_the_ratio():
    rng = random.Random(77)
    for _ in range(20):
        u = random_universe(rng)
        ch = random_channel(rng, u, out_range=(3, 5))
        labels = list(ch.outcomes)
        targets = ["g0", "g1"]
        mapping = {lab: rng.choice(targets) for lab in labels}
        merged = postprocess(ch, mapping)
        assert float(dp_epsilon(merged).ratio) <= float(dp_epsilon(ch).ratio) + 1e-9


def test_postprocess_requires_a_total_map():
    ch = geometric_counting_channel(counting_universe(1), "a", ratio=Fraction(1, 2))
    with pytest.raises(ChannelError):
        postprocess(ch, {0: "x"})
