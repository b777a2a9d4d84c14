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

