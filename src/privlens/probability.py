"""Shared numeric conventions: the Fraction/float tower, zero handling, formatting.

Probabilities live in a two-level tower. Values entered as integers or rational
strings become ``fractions.Fraction`` and every derived quantity stays exact;
values entered as decimal floats stay floats and arithmetic degrades gracefully
(Fraction * float is a float under plain Python operators). Logarithms are taken
only at report time.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Union

Prob = Union[Fraction, float]

# Tolerance for row/table normalization checks and verdict comparisons.
TOL = 1e-9

# Residual mass placed on the numerator branch of near-point-mass priors. Small
# enough that the measured sup sits within ~1e-30 of the limiting ratio on the
# exact path, large enough to keep every conditioning event strictly positive.
DEFAULT_ETA = Fraction(1, 10**30)


class ProbabilityError(ValueError):
    """A value could not be interpreted as a probability."""


# The number strings parse_probability reads, one grammar on every Python
# (Fraction(str) takes underscores from 3.11, spaces around "/" from 3.12
# and non-ASCII digits everywhere): an optionally signed integer or p/q, or
# a decimal with an optional exponent, in ASCII digits.
_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")
_DECIMAL = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def parse_probability(value, *, allow_unit_excess=False) -> Prob:
    """Parse a JSON-ish value into the tower.

    int -> Fraction (exact), float -> float, str -> Fraction (accepts "3/4",
    "0.25", "1", "2.5e-3", with surrounding whitespace; see _RATIONAL and
    _DECIMAL). Negative values are rejected; values above 1 are rejected
    unless allow_unit_excess is set (weights and distortion values reuse this
    parser).
    """
    if isinstance(value, bool):
        raise ProbabilityError(f"not a probability: {value!r}")
    if isinstance(value, int):
        out: Prob = Fraction(value)
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ProbabilityError(f"not a finite probability: {value!r}")
        out = value
    elif isinstance(value, str):
        text = value.strip()
        rational = _RATIONAL.fullmatch(text)
        if not (rational or _DECIMAL.fullmatch(text)):
            raise ProbabilityError(f"cannot parse probability {value!r}")
        try:
            if rational:
                num, den = rational.groups()
                out = Fraction(int(num), int(den or 1))
            else:
                out = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProbabilityError(f"cannot parse probability {value!r}") from exc
    elif isinstance(value, Fraction):
        out = value
    else:
        raise ProbabilityError(f"cannot parse probability {value!r}")
    if out < 0:
        raise ProbabilityError(f"negative probability {value!r}")
    if not allow_unit_excess and out > 1:
        raise ProbabilityError(f"probability above 1: {value!r}")
    return out


def format_number(value):
    """Render a tower value for a report.

    Fractions become strings ("3/4", "3") so exactness survives JSON. Floats
    stay JSON numbers. Infinities become the strings "inf" / "-inf" because
    JSON has no infinity literal. A Fraction whose numerator or denominator
    has more decimal digits than the interpreter converts to a string
    (sys.get_int_max_str_digits, 4300 by default where it exists) raises
    ProbabilityError.
    """
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:
            raise ProbabilityError(
                "exact value is too long to print: more than "
                f"{sys.get_int_max_str_digits()} decimal digits"
            ) from None
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise ProbabilityError("refusing to serialize NaN")
    return value


def ratio_div(num: Prob, den: Prob):
    """num / den under the audit conventions.

    Positive over zero is +inf (a hard distinguishing event). Zero over zero is
    None (the pair is excluded from maxima). Exactness is preserved when both
    sides are Fractions.
    """
    if den == 0:
        if num == 0:
            return None
        return math.inf
    return num / den


def is_inf(value) -> bool:
    """True for a float infinity; Fractions are always finite."""
    return isinstance(value, float) and math.isinf(value)


def tolerance_terms(a, b):
    """(a, b, slack) for comparing finite a with b within TOL relative to
    b: the floats of a and b and TOL * max(1, |b|), or, when a side is
    beyond the float range, the exact values and the exact slack."""
    try:
        a, b, tol = float(a), float(b), TOL
    except OverflowError:
        a, b, tol = Fraction(a), Fraction(b), Fraction(TOL)
    return a, b, tol * max(1, abs(b))


def ratios_agree(a, b) -> bool:
    """Exact equality on two Fractions, equality on infinities, otherwise
    agreement within TOL relative to b (tolerance_terms)."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if is_inf(a) or is_inf(b):
        return a == b
    fa, fb, slack = tolerance_terms(a, b)
    return abs(fa - fb) <= slack


def scale_to_integers(values):
    """(numerators, d) with values[i] == numerators[i] / d, where d is the
    lcm of the denominators, when every value is an int or a Fraction; None
    when any value is a float.

    Exact loops sum these integers and build one Fraction per result, so a
    gcd is taken once per result instead of once per operation."""
    values = list(values)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    d = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (d // v.denominator) for v in values], d


def log_ratio(value) -> float:
    """Natural log of a ratio-scale value, with inf passed through."""
    if value is None:
        raise ProbabilityError("cannot take log of an excluded ratio")
    if is_inf(value):
        return math.inf
    if value == 0:
        return -math.inf
    if isinstance(value, Fraction):
        # Avoid float overflow on extreme exact ratios.
        return math.log(value.numerator) - math.log(value.denominator)
    return math.log(value)


def float_or_inf(value) -> float:
    """float(value), or +-inf for an exact value beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def exp_or_inf(x) -> float:
    """math.exp(x), or inf when the result is beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def nats_to_bits(nats: float) -> float:
    if math.isinf(nats):
        return nats
    return nats / math.log(2.0)


def left_sum(values):
    """The sum of values added left to right from 0, on every Python: from
    3.12 the builtin sum() of floats is compensated, so its last bits
    differ from those of 3.10 and 3.11, which add left to right."""
    total = 0
    for v in values:
        total += v
    return total


def entropy_nats(weights) -> float:
    """Shannon entropy of a distribution given as an iterable of masses.

    Zero-mass cells, and cells whose mass is 0.0 as a float, contribute
    zero. Works on mixed Fraction/float input and returns a float in nats.
    """
    total = 0.0
    for w in weights:
        wf = float(w)
        if wf == 0.0:
            continue
        total -= wf * math.log(wf)
    return total
