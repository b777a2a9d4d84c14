"""Composition across mechanisms and across epochs.

Two distinct regimes live here. Running several mechanisms on the same
records composes into a product channel over outcome tuples. Running across
epochs draws fresh records each epoch (independent priors), so per-epoch
leakage adds on the log scale; the additive total is verified against a
direct pass over the full product space of per-epoch (target records,
histogram) masses and outcome tuples rather than trusting the
factorization.

Rational inputs compose on integers: the product channel's rows, the
product-space masses (from histogram_cells) and the folded rows are int
products over the product of the components' denominators, so no Fraction
is built on the way to a result. A float keeps the Fraction-or-float
products, bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from typing import Optional, Sequence, Tuple

from .leakage import JointTables, Quantity, max_mi, normalize_target
from .mechanism import Channel, RowViews, lipschitz_ratio
from .prior import JointPrior, histogram_cells
from .probability import (
    Prob,
    float_or_inf,
    nats_to_bits,
    ratios_agree,
)
from .universe import channel_build_budget, check_budget
from .audit import Verdict, _parse_bound, leq_with_tol


class CompositionError(ValueError):
    """Mismatched components in a composition."""


def product_channel(channels: Sequence[Channel],
                    budget: Optional[int] = None) -> Channel:
    """Simultaneous release of several mechanisms run on the same dataset.

    All channels must share one universe. Outcomes are tuples of component
    outcomes; each row is the product of the component rows. The product's
    entries are charged against the budget; the achievable histograms are
    listed against channel_build_budget(budget).
    """
    if not channels:
        raise CompositionError("need at least one channel")
    u = channels[0].universe
    for c in channels[1:]:
        if c.universe is not u and c.universe.alphabets != u.alphabets:
            raise CompositionError("channels are over different universes")
    n_out = prod(len(c.outcomes) for c in channels)
    hists = u.achievable_histograms(channel_build_budget(budget))
    check_budget(n_out * len(hists), budget, "product_channel")
    outcomes = tuple(itertools.product(*(c.outcomes for c in channels)))
    if _rational(channels):
        # Rational rows: int products of the numerators over the product
        # of the row denominators, one Fraction per entry at the end.
        return Channel.from_numerators(u, outcomes, {
            h: _fold_dense([c._dense[h] for c in channels]) for h in hists
        }, budget)
    # A float somewhere: each entry is the product of the component
    # entries taken from Fraction(1), as Fraction or float operators give.
    one = (Fraction(1),)
    return Channel(u, outcomes, {
        h: tuple(_fold_rows([one, *(c.rows[h] for c in channels)]))
        for h in hists
    }, budget)


def certify_composition(
    channels: Sequence[Channel],
    k: int,
    *,
    epsilons: Optional[Sequence[float]] = None,
    exp_epsilons: Optional[Sequence] = None,
    budget: Optional[int] = None,
) -> Verdict:
    """Certify that the joint release stays within the summed levels.

    Per-component levels may be given in nats or as exact ratio-scale values.
    The measured side is the exact k-change scan of the product channel, so
    the verdict covers every prior in the k-block family at once.
    """
    if (epsilons is None) == (exp_epsilons is None):
        raise CompositionError("give exactly one of epsilons or exp_epsilons")
    key, levels = (("epsilon", epsilons) if exp_epsilons is None
                   else ("exp_epsilon", exp_epsilons))
    if not isinstance(levels, (list, tuple)):
        raise CompositionError(f"{key}s must be a list, got {levels!r}")
    # Every level is read before the first scan; a null entry is no level.
    if None in levels:
        raise CompositionError(
            f"{key}s[{levels.index(None)}] must be a level, got None")
    units = [_parse_bound(**{key: e}) for e in levels]
    if len(units) != len(channels):
        raise CompositionError("need one level per channel")
    per_component = []
    for c, unit in zip(channels, units):
        scan = lipschitz_ratio(c, k, budget)
        per_component.append({
            "measured_ratio": scan.ratio,
            "bound_ratio": unit,
            "satisfied": leq_with_tol(scan.ratio, unit),
        })
    bound: Prob = prod(units, start=Fraction(1))
    combined = product_channel(channels, budget)
    scan = lipschitz_ratio(combined, k, budget)
    notes = []
    if not all(row["satisfied"] for row in per_component):
        notes.append("a component exceeds its own level; the summed bound "
                     "may still hold but is not implied")
    return Verdict(
        claim="composition stays within the summed levels",
        params={"k": k, "components": len(channels)},
        measured_ratio=scan.ratio,
        bound_ratio=bound,
        satisfied=leq_with_tol(scan.ratio, bound),
        conclusive=True,
        witness=scan.witness(),
        notes=tuple(notes),
        details={"per_component": per_component},
    )


# ---------------------------------------------------------------------------
# Epochs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochModel:
    """Independent epochs: one (prior, channel) pair per epoch over the same
    population. Records are redrawn each epoch from that epoch's prior."""

    epochs: Tuple[Tuple[JointPrior, Channel], ...]

    def __post_init__(self):
        if not self.epochs:
            raise CompositionError("need at least one epoch")
        n = self.epochs[0][0].universe.n
        for t, (p, c) in enumerate(self.epochs):
            if p.universe.alphabets != c.universe.alphabets:
                raise CompositionError(f"epoch {t}: prior and channel disagree")
            if p.universe.n != n:
                raise CompositionError(
                    f"epoch {t} has {p.universe.n} individuals, expected {n}"
                )

    @property
    def n(self) -> int:
        return self.epochs[0][0].universe.n


@dataclass(frozen=True)
class EpochReport:
    """total_nats sums the epochs' float nats; it is not log(total_ratio)."""

    per_epoch: Tuple[Quantity, ...]
    total_ratio: Prob
    total_nats: float

    @property
    def total_bits(self) -> float:
        return nats_to_bits(self.total_nats)


def epoch_leakage(model: EpochModel, target,
                  budget: Optional[int] = None) -> EpochReport:
    """Per-epoch worst-case leakage about the target and the additive total.

    Epochs are independent, so the worst posterior-to-prior jump for the
    whole trajectory is the product of the per-epoch jumps.
    """
    quantities = []
    total: Prob = Fraction(1)
    nats = 0.0
    for p, c in model.epochs:
        q = max_mi(p, c, target, budget)
        quantities.append(q)
        # With a float side the product is a float, as Python computes it,
        # except that an exact side beyond the float range reads as inf
        # instead of overflowing.
        r = q.ratio
        total = (float_or_inf(total) * float_or_inf(r)
                 if isinstance(total, float) or isinstance(r, float)
                 else total * r)
        nats += q.nats
    return EpochReport(
        per_epoch=tuple(quantities),
        total_ratio=total,
        total_nats=nats,
    )


def _fold_rows(rows):
    """Product of component rows, indexed in itertools.product order over
    the component outcomes."""
    out = rows[0]
    for row in rows[1:]:
        out = [a * b for a in out for b in row]
    return out


def _fold_dense(dense):
    """_fold_rows on integer rows: (numerators, d) per component gives the
    product row's int numerators over the product of the d."""
    return _fold_rows([nums for nums, _ in dense]), prod(d for _, d in dense)


def direct_epoch_max_mi(model: EpochModel, target,
                        budget: Optional[int] = None) -> Quantity:
    """The same quantity measured from first principles: take the product
    space of the per-epoch (target records, histogram) masses and outcome
    tuples, aggregate the joint of (per-epoch target records, outcome
    tuple), and take the largest pointwise mutual information. Exists to
    check the additive path, so the product is never factorized.

    When every prior is rational, each cell's mass is the int product of
    the epochs' numerators (histogram_cells) over the product of their
    denominators; otherwise it is the product of the epochs' Fraction or
    float masses from Fraction(1). _folded_max_mi folds the rows."""
    tgt = normalize_target(model.n, target)
    support = prod(p.support_size() for p, _ in model.epochs)
    out_card = prod(len(c.outcomes) for _, c in model.epochs)
    check_budget(support * out_card, budget, "direct_epoch_max_mi")

    channels = [c for _, c in model.epochs]
    epoch_cells = [histogram_cells(p, tgt) for p, _ in model.epochs]
    if all(d is not None for _, d in epoch_cells):
        per_epoch = [cs for cs, _ in epoch_cells]
        start, d = 1, prod(d for _, d in epoch_cells)
    else:
        per_epoch = [cs if d is None else [(key, Fraction(a, d)) for key, a in cs]
                     for cs, d in epoch_cells]
        start, d = Fraction(1), None
    cells = []
    for combo in itertools.product(*per_epoch):
        keys_hists, masses = zip(*combo)
        cells.append((tuple(zip(*keys_hists)), prod(masses, start=start)))
    q = _folded_max_mi(cells, d, channels, lambda hists: hists)
    if q.witness is None:
        return q
    return replace(q, witness={
        "records_by_epoch": [list(x) for x in q.witness["records"]],
        "outcomes_by_epoch": list(q.witness["outcome"]),
    })


def _folded_max_mi(cells, d, channels, hists_of) -> Quantity:
    """max_mi over ((records key, row key), mass) cells, whose masses are
    integer numerators over d when d is given, where the row of a row key
    is the product of the channels' rows at hists_of(row key), one
    histogram per channel, over outcome tuples. When every channel is
    rational the rows are folded on their integer rows."""

    def row_of(key):
        return _fold_rows([c.rows[h] for c, h in zip(channels, hists_of(key))])

    def dense_of(key):
        return _fold_dense([c._dense[h]
                            for c, h in zip(channels, hists_of(key))])

    outcomes = tuple(itertools.product(*(c.outcomes for c in channels)))
    views = RowViews(row_of, dense_of if _rational(channels) else None)
    tables = JointTables.from_cells(cells, views, outcomes, d)
    return max_mi(None, None, None, tables=tables)


def _rational(channels) -> bool:
    """True when every row of every channel is rational."""
    return all(None not in c._dense.values() for c in channels)


def equal_epoch_reduction(prior: JointPrior, channels: Sequence[Channel],
                          target, budget: Optional[int] = None) -> dict:
    """Same records observed through several mechanisms: the trajectory
    leakage equals the product-channel leakage. Returns both measurements
    (product-channel route and a direct tuple-space route that folds the
    component rows itself, on integers when everything is rational) and
    whether they agree exactly."""
    tgt = normalize_target(prior.universe.n, target)
    combined = product_channel(channels, budget)
    via_product = max_mi(prior, combined, tgt, budget)

    cells, d = histogram_cells(prior, tgt)
    direct = _folded_max_mi(cells, d, channels,
                            lambda h: [h] * len(channels))
    return {
        "via_product_channel": via_product,
        "direct_ratio": direct.ratio,
        "direct_nats": direct.nats,
        "agree": ratios_agree(direct.ratio, via_product.ratio),
    }
