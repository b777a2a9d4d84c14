import math
from fractions import Fraction

import pytest

from privlens import (
    ProbabilityError,
    format_number,
    log_ratio,
    nats_to_bits,
    parse_probability,
    ratio_div,
    ratios_agree,
)
from privlens.probability import entropy_nats


def test_parse_keeps_rationals_exact_and_floats_floaty():
    assert parse_probability("3/4") == Fraction(3, 4)
    assert isinstance(parse_probability("0.1"), Fraction)
    assert parse_probability("0.1") == Fraction(1, 10)
    assert parse_probability(1) == Fraction(1)
    v = parse_probability(0.1)
    assert isinstance(v, float)
    assert v == 0.1


def test_parse_rejects_garbage():
    for bad in (-0.5, "-1/2", "7/0", float("nan"), float("inf"), True, None, [1]):
        with pytest.raises(ProbabilityError):
            parse_probability(bad)
    with pytest.raises(ProbabilityError):
        parse_probability("3/2")
    assert parse_probability("3/2", allow_unit_excess=True) == Fraction(3, 2)


@pytest.mark.parametrize("text, value", [
    ("1/3", Fraction(1, 3)), ("9/4", Fraction(9, 4)), ("3", Fraction(3)),
    ("0.25", Fraction(1, 4)), (".5", Fraction(1, 2)), ("5.", Fraction(5)),
    ("2.5e-3", Fraction(1, 400)), ("1E+2", Fraction(100)),
    ("1e-400", Fraction(1, 10**400)), (" 3/4\n", Fraction(3, 4)),
    ("0/7", Fraction(0)), ("-0", Fraction(0)), ("+1/2", Fraction(1, 2)),
])
def test_number_strings_parse_alike_on_every_python(text, value):
    got = parse_probability(text, allow_unit_excess=True)
    assert type(got) is Fraction and got == value


@pytest.mark.parametrize("text", [
    "1_0/30", "1 / 2", "1/ 2", "٣/٤", "３", "1/-2", "1.5/2", "1/2/3", "7/0",
    "", " ", ".", "1e", "e3", "nan", "inf", "0x10", "1,5",
])
def test_number_strings_outside_the_grammar_are_refused(text):
    # Fraction(str) reads some of these on some Pythons only: underscores
    # from 3.11, spaces around "/" from 3.12, non-ASCII digits everywhere.
    with pytest.raises(ProbabilityError) as exc:
        parse_probability(text, allow_unit_excess=True)
    assert str(exc.value) == f"cannot parse probability {text!r}"


def test_negative_number_strings_are_negative_probabilities():
    for text in ("-1/2", "-0.5", "-1e-3"):
        with pytest.raises(ProbabilityError) as exc:
            parse_probability(text)
        assert str(exc.value) == f"negative probability {text!r}"


def test_format_number_round_trips_through_json_types():
    assert format_number(Fraction(3, 4)) == "3/4"
    assert format_number(Fraction(3)) == "3"
    assert format_number(math.inf) == "inf"
    assert format_number(-math.inf) == "-inf"
    assert format_number(0.25) == 0.25
    with pytest.raises(ProbabilityError):
        format_number(float("nan"))


def test_ratio_div_conventions():
    assert ratio_div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert ratio_div(Fraction(1, 2), 0) == math.inf
    assert ratio_div(0, 0) is None
    assert ratio_div(0, Fraction(1, 4)) == 0


def test_log_ratio_handles_extreme_fractions():
    huge = Fraction(10**400, 7)
    assert abs(log_ratio(huge) - (400 * math.log(10) - math.log(7))) < 1e-6
    assert log_ratio(math.inf) == math.inf
    assert log_ratio(Fraction(0)) == -math.inf
    with pytest.raises(ProbabilityError):
        log_ratio(None)


def test_ratios_agree_beyond_the_float_range_on_exact_values():
    # float() of 10**400 overflows; the exact values decide, as they do in
    # leq_with_tol.
    assert not ratios_agree(Fraction(10**400), 2.0)
    assert ratios_agree(10**400 + 1, Fraction(10**400))


def test_nats_to_bits():
    assert abs(nats_to_bits(math.log(2)) - 1.0) < 1e-12
    assert nats_to_bits(math.inf) == math.inf


def test_entropy_nats_mixed_tower():
    ws = [Fraction(1, 2), 0.25, Fraction(1, 4)]
    assert abs(entropy_nats(ws) - 1.5 * math.log(2)) < 1e-12
    assert entropy_nats([Fraction(1), 0]) == 0.0

