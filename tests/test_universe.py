import random

import pytest

from privlens import (
    BOT,
    EnumerationBudgetError,
    RecordUniverse,
    UniverseError,
    l1_distance,
    uniform_universe,
)

from gen import random_universe


def test_sequences_with_histogram_charges_its_realizations():
    # The suffix sets of n=12 over {BOT, a, b} take 1092 steps; the
    # histogram (4, 4) has 12! / (4! 4! 4!) = 34650 realizations, charged
    # before any is listed.
    u = uniform_universe(12, (BOT, "a", "b"))
    with pytest.raises(EnumerationBudgetError) as exc:
        u.sequences_with_histogram((4, 4), budget=5000)
    assert (exc.value.stage, exc.value.cardinality) == (
        "sequences_with_histogram", 34650)
    assert len(u.sequences_with_histogram((4, 4), budget=34650)) == 34650


def test_pooled_alphabet_drops_bot_and_keeps_first_appearance_order():
    u = RecordUniverse((("a", BOT, "b"), (BOT, "c", "a")))
    assert u.pooled_alphabet == ("a", "b", "c")


def test_histogram_of_sequence():
    u = uniform_universe(2, (BOT, "a", "b"))
    assert u.to_histogram((BOT, BOT)) == (0, 0)
    assert u.to_histogram(("a", BOT)) == (1, 0)
    assert u.to_histogram(("b", "b")) == (0, 2)


def test_replacement_pair_has_l1_distance_two():
    u = uniform_universe(2, (BOT, "a", "b"))
    h1 = u.to_histogram(("a", BOT))
    h2 = u.to_histogram(("b", BOT))
    assert l1_distance(h1, h2) == 2


def test_single_bot_toggle_has_l1_distance_one():
    rng = random.Random(11)
    for _ in range(50):
        u = random_universe(rng)
        seq = [rng.choice(a) for a in u.alphabets]
        i = rng.randrange(u.n)
        if BOT not in u.alphabets[i]:
            continue
        other = [s for s in u.alphabets[i] if s != BOT]
        edited = list(seq)
        if seq[i] == BOT:
            edited[i] = rng.choice(other)
        else:
            edited[i] = BOT
        d = l1_distance(u.to_histogram(seq), u.to_histogram(edited))
        assert d == 1


def test_achievable_histograms_counting_universe():
    u = uniform_universe(2, (BOT, "a"))
    assert u.achievable_histograms() == ((0,), (1,), (2,))


def test_sequences_with_histogram_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        u = random_universe(rng)
        for h in u.achievable_histograms():
            seqs = u.sequences_with_histogram(h)
            assert seqs
            for s in seqs:
                assert u.to_histogram(s) == h


def test_histogram_key_roundtrip():
    u = uniform_universe(3, (BOT, "a", "b"))
    for h in u.achievable_histograms():
        assert u.parse_histogram_key(u.histogram_key(h)) == h


def test_histogram_label():
    u = uniform_universe(2, (BOT, "a", "b"))
    assert u.histogram_label((1, 0)) == "a=1,b=0"


def test_sequence_validation():
    u = uniform_universe(2, (BOT, "a"))
    with pytest.raises(UniverseError):
        u.validate_sequence(("a",))
    with pytest.raises(UniverseError):
        u.validate_sequence(("a", "z"))


def test_universe_validation():
    with pytest.raises(UniverseError):
        RecordUniverse(())
    with pytest.raises(UniverseError):
        RecordUniverse((("a", "a"),))
    with pytest.raises(UniverseError):
        RecordUniverse(((),))


def test_enumeration_budget():
    u = uniform_universe(3, (BOT, "a", "b"))
    with pytest.raises(EnumerationBudgetError) as exc:
        list(u.iter_sequences(budget=10))
    assert exc.value.cardinality == 27
    assert exc.value.budget == 10


def test_l1_distance_validation():
    with pytest.raises(UniverseError):
        l1_distance((1, 0), (1,))
