"""Adversarial leakage measurements for a prior and a channel.

Everything here works on the exact joint distribution of (target records,
outcome) assembled from the prior's (target records, histogram) masses and
the channel rows. Maxima range over positive-probability records and
positive-probability outcomes only; zero-probability joint cells are skipped
(they can never attain a maximum because every outcome column contains a
ratio of at least one). Ratio-scale results stay exact Fractions whenever
both inputs are rational.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .prior import (
    HistogramPlan,
    JointPrior,
    dataset_distribution,
    histogram_cells,
)
from .mechanism import Channel, RowViews
from .probability import (
    TOL,
    Prob,
    left_sum,
    log_ratio,
    nats_to_bits,
    ratio_div,
    scale_to_integers,
)
from .universe import check_budget


class LeakageError(ValueError):
    """Prior and channel disagree, or a target is malformed."""


@dataclass(frozen=True)
class Quantity:
    """One leakage number on every scale that makes sense for it.

    ratio is present for max-type quantities (exp of the nats value, exact
    when inputs are rational) and None for averaged ones; bits is derived
    from nats. notes flag vacuous cases instead of inventing values.
    """

    nats: float
    ratio: Optional[Prob] = None
    witness: Optional[dict] = None
    notes: Tuple[str, ...] = ()

    @property
    def bits(self) -> float:
        return nats_to_bits(self.nats)


def normalize_target(n: int, target) -> Tuple[int, ...]:
    """Sorted distinct indices of the targeted individuals; a bare integer
    names one individual. A bool is no index, as a target or as an entry."""
    try:
        entries = list((target,) if isinstance(target, int) else target)
        if any(isinstance(i, bool) for i in entries):
            raise TypeError
        tgt = tuple(sorted(set(map(operator.index, entries))))
    except TypeError:
        raise LeakageError(
            "target must be an individual index or a list of them, "
            f"got {target!r}"
        ) from None
    if not tgt:
        raise LeakageError("target must name at least one individual")
    for i in tgt:
        if not (0 <= i < n):
            raise LeakageError(f"target {i} out of range for n={n}")
    return tgt


def _check_compatible(prior: JointPrior, channel: Channel):
    if prior.universe is not channel.universe and (
        prior.universe.alphabets != channel.universe.alphabets
    ):
        raise LeakageError("prior and channel are over different universes")


class JointTables:
    """Exact joint of (records key, outcome) plus both marginals.

    p_x maps records keys (the target's records) to prior mass, p_r is
    aligned with outcomes, and rows maps each records key to its joint
    masses, aligned with outcomes. A channel sees only the histogram, so the
    joint is built from the prior's (records key, histogram) masses, one
    cell per pair, never from its support sequences. from_cells builds the
    same tables from cells read off without a prior (the worst-case pair
    candidates and the composition cross-checks). p_x and rows list their
    keys in sorted order, so every scan below is reproducible bit for bit.

    When every mass and row entry is rational, integers holds the same
    tables as integer numerators, (p_x, p_r, rows, m): p_x over m, p_r and
    rows over one common multiple of m, a numerator of 0 where no mass
    arrives. The quantities read these alone; the Fraction p_x, p_r and
    rows are built from them on first use. Otherwise integers is None and
    rows holds None where no mass arrives. A rational prior hands over its
    masses as integer numerators (histogram_cells), so no Fraction is built
    on the way; the callers of from_cells hand theirs over the same way.
    """

    def __init__(self, prior: JointPrior, channel: Channel, target,
                 budget: Optional[int] = None):
        _check_compatible(prior, channel)
        tgt = normalize_target(prior.universe.n, target)
        check_budget(prior.support_size(), budget, "JointTables")
        cells, d = histogram_cells(prior, tgt)
        self._accumulate(cells, channel._row_views, channel.outcomes, d)
        self.prior = prior
        self.target = tgt

    @classmethod
    def from_cells(cls, cells, views: RowViews, outcomes,
                   d=None) -> "JointTables":
        """Tables over ((records key, row key), mass) cells, where views is
        the RowViews of the row keys, whose rows are aligned with outcomes;
        prior and target are None. When d is given the masses are integer
        numerators over d."""
        t = cls.__new__(cls)
        t.prior = t.target = None
        t._accumulate(list(cells), views, outcomes, d)
        return t

    def _accumulate(self, cells, views, outcomes, d=None):
        """cells is a list of ((records key, row key), mass); views is the
        RowViews of the row keys. When d is given, the masses are integer
        numerators over d."""
        self.outcomes = tuple(outcomes)
        self.integers = None
        if d is None:
            masses = scale_to_integers(p for _, p in cells)
        else:
            masses = [a for _, a in cells], d
        rows = None if masses is None else {
            rk: views.integer(rk) for (_, rk), _ in cells
        }
        if rows is None or None in rows.values():
            if d is not None:
                cells = [(key, Fraction(a, d)) for key, a in cells]
            self._accumulate_generic(cells, views)
            return
        # Exact path: masses are integers over m and row entries integers
        # over d, the lcm of the rows' own denominators, so every sum is an
        # int and each result is one Fraction.
        nums, m = masses
        d = math.lcm(*{dr for dr, _ in rows.values()})
        rows = {rk: (d // dr, row) for rk, (dr, row) in rows.items()}
        n_out = len(outcomes)
        p_x, acc = {}, {}
        for ((xv, rk), _), a in zip(cells, nums):
            scale, row = rows[rk]
            vals = acc.get(xv)
            if vals is None:
                vals = acc[xv] = [0] * n_out
                p_x[xv] = a
            else:
                p_x[xv] += a
            a *= scale
            for j, b in row:
                vals[j] += a * b
        p_x = {k: p_x[k] for k in sorted(p_x)}
        # Each outcome's mass is the sum of its joint cells: int sums, so
        # the same ints as summing the terms as they come.
        p_r = [sum(col) for col in zip([0] * n_out, *acc.values())]
        self.integers = (p_x, p_r, {k: acc[k] for k in p_x}, m)
        self._md = m * d

    # The generic path assigns these three names on the instance, which
    # shadows the cached properties.

    @functools.cached_property
    def p_x(self) -> Dict[tuple, Prob]:
        p_x, _, _, m = self.integers
        return {k: Fraction(a, m) for k, a in p_x.items()}

    @functools.cached_property
    def p_r(self):
        return [Fraction(w, self._md) for w in self.integers[1]]

    @functools.cached_property
    def rows(self) -> Dict[tuple, list]:
        return {xv: [Fraction(w, self._md) if w else None for w in row]
                for xv, row in self.integers[2].items()}

    def _accumulate_generic(self, cells, views):
        p_x, rows, p_r = _accumulate_first_terms(
            cells, views.nonzero, len(self.outcomes))
        self.p_x = {k: p_x[k] for k in sorted(p_x)}
        self.rows = {k: rows[k] for k in self.p_x}
        self.p_r = [Fraction(0) if pr is None else pr for pr in p_r]


def _accumulate_first_terms(cells, nonzero, n_out):
    """Sum ((x, row key), mass) cells into the mass of x, the joint of (x,
    outcome index j) and the mass of j, each sum starting from its first
    term, in cell order. nonzero[row key] is the row's nonzero (j, entry)
    pairs as given and as floats (RowViews.nonzero); n_out is the number
    of outcomes.

    Returns (p_x, rows, p_r): p_x maps x to its mass and rows maps x to its
    joint masses, both in order of first appearance; rows and p_r are
    aligned with the outcomes, with None where no mass arrives."""
    p_x = {}
    rows = {}
    # None until an outcome gets mass; a first mass is stored as is, so no
    # sum starts from an int (an int + Fraction takes the slow operator
    # fallback).
    p_r = [None] * n_out
    for (x, rk), p in cells:
        old = p_x.get(x)
        if old is None:
            p_x[x] = p
            row = rows[x] = [None] * n_out
        else:
            p_x[x] = old + p
            row = rows[x]
        # A float mass meets a float copy of the row: float * Fraction is
        # computed as float * float(Fraction) anyway, so the bits are the
        # same and the Fraction operator fallback is skipped.
        for j, q in nonzero[rk][isinstance(p, float)]:
            w = p * q
            old = row[j]
            row[j] = w if old is None else old + w
            old = p_r[j]
            p_r[j] = w if old is None else old + w
    return p_x, rows, p_r


def max_mi(prior, channel, target, budget=None, tables=None) -> Quantity:
    """Largest pointwise mutual information between the target's records and
    the outcome: the worst-case multiplicative posterior-to-prior jump.

    Cells are scanned by sorted records key, then outcome index, and the
    first maximum is kept, so witnesses are reproducible."""
    t = tables or JointTables(prior, channel, target, budget)
    if t.integers is not None:
        return _max_mi_quantity(*_max_mi_integers(t))
    return _max_mi_quantity(*_max_mi_scan(
        ((xv, px, t.rows[xv]) for xv, px in t.p_x.items()), t.p_r,
        t.outcomes))


def _max_mi_quantity(best, wit) -> Quantity:
    """The max_mi Quantity of a scan's first maximum and its (records key,
    outcome label) witness."""
    if best is None:
        # Degenerate: the channel has no positive-probability outcome, which
        # row validation rules out; kept for completeness.
        return Quantity(nats=0.0, ratio=Fraction(1),
                        notes=("no positive joint cells",))
    return Quantity(
        nats=log_ratio(best),
        ratio=best,
        witness={"records": list(wit[0]), "outcome": wit[1]},
    )


def _max_mi_integers(t):
    """The max_mi scan on the integer tables. With p_x = a/m and p_r, rows
    = c/D, w/D over one D, the ratio (w/D) / (a/m) / (c/D) is w*m / (a*c),
    so two cells compare by cross-multiplying and one Fraction is built
    for the winner."""
    p_x, p_r, rows, m = t.integers
    best_w = best_den = None
    wit = None
    for xv, a in p_x.items():
        if a == 0:
            continue
        for j, (c, w) in enumerate(zip(p_r, rows[xv])):
            if c == 0 or w == 0:
                continue
            den = a * c
            if best_w is None or w * best_den > best_w * den:
                best_w, best_den = w, den
                wit = (xv, t.outcomes[j])
    if best_w is None:
        return None, None
    return Fraction(best_w * m, best_den), wit


def _max_mi_scan(cells, p_r, outcomes):
    """The first maximum of joint / (p_x * p_r) and its (x, outcome label),
    over (x, p_x, joint row) cells in the given order, then outcome index;
    rows and p_r are aligned with the outcomes and hold None or zero where
    there is no mass."""
    best = None
    wit = None
    for x, px, row in cells:
        if px == 0:
            continue
        for j, label in enumerate(outcomes):
            pr = p_r[j]
            if pr is None or pr == 0:
                continue
            w = row[j]
            if w is None or w == 0:
                continue
            r = (w / px) / pr
            if best is None or r > best:
                best = r
                wit = (x, label)
    return best, wit


_FLOAT = {float}


class MaxMiPlan:
    """max_mi for every prior with one block layout and, per block, one
    list of positive cells in table order, as HistogramPlan takes them: the
    priors sample_prior draws over the channel's universe give every cell a
    positive mass unless a band mass underflows to zero.

    The layout's HistogramPlan is built once, and with it each final
    state's records rank and nonzero row in both views, so each prior skips
    histogram_masses' bookkeeping. Its masses, in histogram_masses order,
    are summed by the records key's rank among the sorted records keys, as
    JointTables sums them by the key itself, and scanned in rank order, so
    max_mi_masses returns the Quantity of max_mi on the member's prior bit
    for bit. An all-rational member takes the integer scan in max_mi; that
    scan compares the same exact values in the same order, so it keeps the
    same first maximum.
    """

    def __init__(self, blocks, channel: Channel, target, cells):
        self.blocks = tuple(blocks)
        self.channel = channel
        self._cells = cells
        self._plan = HistogramPlan(channel.universe, self.blocks, target, cells)
        self.records = sorted({xv for xv, _ in self._plan.keys})
        rank = {xv: x for x, xv in enumerate(self.records)}
        # Final state i sums into its rank with the row of its histogram,
        # as given ([0]) and as floats ([1]).
        views = channel._row_views.nonzero
        self._states = tuple(
            [(rank[xv], views[h][as_float]) for xv, h in self._plan.keys]
            for as_float in (0, 1))

    def max_mi_masses(self, masses) -> Quantity:
        """max_mi of the prior whose blocks give the plan's cells these
        masses and every other cell zero: masses holds, per block of the
        layout, the mass of each of the plan's cells of the block. Each
        block's masses must be positive and sum to one within TOL."""
        if len(masses) != len(self.blocks):
            raise LeakageError(
                f"{len(masses)} mass lists for {len(self.blocks)} blocks")
        for b, ms, cells in zip(self.blocks, masses, self._cells):
            # min can pass over a NaN, but the NaN then makes the sum NaN,
            # which the negated sum test rejects.
            if len(ms) != len(cells) or not min(ms, default=0) > 0:
                raise LeakageError(
                    f"masses of block {b} do not give every planned cell "
                    "a positive mass")
            total = float(left_sum(ms))
            if not abs(total - 1.0) <= TOL:
                raise LeakageError(
                    f"masses of block {b} sum to {total!r}, expected 1")
        # The row view is picked once for the member. A state's mass sums
        # products of one mass per block, so when some block's masses are
        # all floats every state's mass is a float and takes the float rows;
        # otherwise every state takes the rows as given, and a float mass
        # times a Fraction entry is computed as the float times the entry's
        # float, the same bits. Each sum starts from an int 0, and 0 + x is
        # x itself; every term is nonnegative, so no -0.0 arises, and a
        # cell no mass reaches stays 0, which the scan skips.
        states = self._states[any(set(map(type, ms)) == _FLOAT
                                  for ms in masses)]
        n_out = len(self.channel.outcomes)
        p_x = [0] * len(self.records)
        rows = [[0] * n_out for _ in self.records]
        p_r = [0] * n_out
        for (x, view), p in zip(states, self._plan.masses(masses)):
            p_x[x] += p
            row = rows[x]
            for j, q in view:
                w = p * q
                row[j] += w
                p_r[j] += w
        best, wit = _max_mi_scan(zip(range(len(p_x)), p_x, rows), p_r,
                                 self.channel.outcomes)
        if wit is not None:
            wit = (self.records[wit[0]], wit[1])
        return _max_mi_quantity(best, wit)


def _float_entries(t):
    """(p_x, p_r, rows, fx, fr): the tables' entries as the scans read them
    and the functions giving their floats, fx for p_x entries and fr for
    p_r and rows entries. On the integer tables the entries are the
    numerators and fx, fr divide by their denominators: int / int is the
    correctly rounded float of the exact value, the same float as float()
    of its Fraction, so no Fraction is built."""
    if t.integers is None:
        return t.p_x, t.p_r, t.rows, float, float
    p_x, p_r, rows, m = t.integers
    return p_x, p_r, rows, m.__rtruediv__, t._md.__rtruediv__


def _exact_log_ratio(t, w, px, pr):
    """log of the joint-to-marginals ratio of a cell from its exact entries
    w, px, pr as _float_entries gives them, for a cell whose float
    denominator underflows to zero. On the integer tables w and pr are over
    one D and px over m, so the ratio is w * m / (px * pr)."""
    m = 1 if t.integers is None else t.integers[3]
    return log_ratio(Fraction(w) * m / (Fraction(px) * Fraction(pr)))


def mi(prior, channel, target, budget=None, tables=None) -> Quantity:
    """Mutual information between the target's records and the outcome, in
    nats (averaged, so no ratio scale). Cells are summed by sorted records
    key, then outcome index, so the float sum does not depend on the order
    in which the joint was built. A cell whose mass is 0.0 as a float adds
    nothing, like a zero cell."""
    t = tables or JointTables(prior, channel, target, budget)
    p_x, p_r, rows, fx, fr = _float_entries(t)
    f_r = [fr(c) for c in p_r]
    total = 0.0
    for xv, px in p_x.items():
        fpx = fx(px)
        for j, (fpr, w) in enumerate(zip(f_r, rows[xv])):
            if not w:
                continue
            fw = fr(w)
            if fw == 0.0:
                continue
            den = fpx * fpr
            total += fw * (math.log(fw / den) if den
                           else _exact_log_ratio(t, w, px, p_r[j]))
    total = max(total, 0.0)
    return Quantity(nats=total)


def max_rel_entropy(prior, channel, target, budget=None, tables=None) -> Quantity:
    """Largest KL divergence from the posterior on the target's records back
    to the prior, over positive-probability outcomes. A posterior whose
    float is 0.0 adds nothing to the divergence."""
    t = tables or JointTables(prior, channel, target, budget)
    p_x, p_r, rows, fx, fr = _float_entries(t)
    f_x = [(rows[xv], px, fx(px)) for xv, px in p_x.items()]
    best = None
    wit = None
    for j, label in enumerate(t.outcomes):
        pr = p_r[j]
        if pr == 0:
            continue
        fpr = fr(pr)
        acc = 0.0
        for row, px, fpx in f_x:
            w = row[j]
            if not w:
                continue
            # On the integer tables w and pr are over one D, so w / pr is
            # the posterior on both paths.
            post = (fr(w) / fpr if fpr
                    else float(Fraction(w) / Fraction(pr)))
            if post == 0.0:
                continue
            acc += post * (math.log(post / fpx) if fpx
                           else _exact_log_ratio(t, w, px, pr))
        acc = max(acc, 0.0)
        if best is None or acc > best:
            best = acc
            wit = label
    if best is None:
        return Quantity(nats=0.0, notes=("no positive outcomes",))
    return Quantity(nats=best, witness={"outcome": wit})


def inferential_eps(prior, channel, target, budget=None, tables=None) -> Quantity:
    """Worst-case log likelihood ratio an outcome induces between two
    admissible assignments of the target's records.

    Vacuous (and flagged) when fewer than two assignments have positive prior
    mass; a hard distinguishing event gives math.inf. Pairs are scanned by
    sorted records keys, then outcome index, and the first maximum is kept.
    """
    t = tables or JointTables(prior, channel, target, budget)
    p_x = t.p_x if t.integers is None else t.integers[0]
    support = [xv for xv, px in p_x.items() if px > 0]
    if len(support) < 2:
        return Quantity(
            nats=0.0,
            ratio=Fraction(1),
            notes=("only one admissible assignment; condition is vacuous",),
        )
    if t.integers is None:
        best, wit = _inferential_eps_generic(t, support)
    else:
        best, wit = _inferential_eps_integers(t, support)
    if best is None:
        return Quantity(
            nats=0.0, ratio=Fraction(1),
            notes=("all likelihood pairs are excluded",),
        )
    return Quantity(
        nats=log_ratio(best),
        ratio=best,
        witness={
            "numerator_records": list(wit[0]),
            "denominator_records": list(wit[1]),
            "outcome": wit[2],
        },
    )


def _inferential_eps_integers(t, support):
    """The inferential_eps scan on the integer tables. The likelihoods are
    la = w_a / p_a and lb = w_b / p_b with p_x over m and rows over one D,
    so la / lb = (w_a * p_b) / (w_b * p_a): two cells compare by
    cross-multiplying and one Fraction is built for the winner. Positive
    over zero is inf, which no later ratio exceeds, so the first one ends
    the scan; zero over zero is skipped."""
    p_x, _, rows, _ = t.integers
    best_num = best_den = None
    wit = None
    for a in support:
        pa, row_a = p_x[a], rows[a]
        for b in support:
            if a == b:
                continue
            pb = p_x[b]
            for j, (wa, wb) in enumerate(zip(row_a, rows[b])):
                if wb == 0:
                    if wa == 0:
                        continue
                    return math.inf, (a, b, t.outcomes[j])
                num = wa * pb
                den = wb * pa
                if best_num is None or num * best_den > best_num * den:
                    best_num, best_den = num, den
                    wit = (a, b, t.outcomes[j])
    if best_num is None:
        return None, None
    return Fraction(best_num, best_den), wit


def _inferential_eps_generic(t, support):
    """The inferential_eps scan on the stored entries, for float or mixed
    tables: one ratio_div per cell."""
    best = None
    wit = None
    for a in support:
        pa, row_a = t.p_x[a], t.rows[a]
        for b in support:
            if a == b:
                continue
            pb, row_b = t.p_x[b], t.rows[b]
            for j, label in enumerate(t.outcomes):
                wa, wb = row_a[j], row_b[j]
                la = (0 if wa is None else wa) / pa
                lb = (0 if wb is None else wb) / pb
                r = ratio_div(la, lb)
                if r is None:
                    continue
                if best is None or r > best:
                    best = r
                    wit = (a, b, label)
    return best, wit


def output_entropy(prior, channel, budget=None, tables=None) -> Quantity:
    """Entropy of the outcome distribution under the prior. tables, when
    given, are any JointTables of the prior and channel whose outcome masses
    are exact: those do not depend on the target. An outcome mass whose
    float is 0.0 adds nothing."""
    t = tables or JointTables(prior, channel, (0,), budget)
    _, p_r, _, _, fr = _float_entries(t)
    total = 0.0
    for pr in p_r:
        f = fr(pr)
        if f == 0.0:
            continue
        total -= f * math.log(f)
    return Quantity(nats=total)


@dataclass(frozen=True)
class LeakageReport:
    """All per-target quantities plus channel-level summaries."""

    targets: Tuple[Tuple[int, ...], ...]
    per_target: Dict[Tuple[int, ...], Dict[str, Quantity]]
    output_entropy: Quantity
    prior_entropy_nats: float


def leakage_report(prior, channel, targets=None, budget=None) -> LeakageReport:
    """Measure every quantity for each target, sharing one table build per
    target. Default targets: each individual separately."""
    if targets is None:
        targets = list(range(prior.universe.n))
    norm = []
    per: Dict[Tuple[int, ...], Dict[str, Quantity]] = {}
    # An exact p_r is the same for every target, so the first exact table
    # serves output_entropy; a float p_r is summed in an order that depends
    # on the target, so a float table does not.
    exact = None
    for tgt in targets:
        t = JointTables(prior, channel, tgt, budget)
        if exact is None and t.integers is not None:
            exact = t
        key = t.target
        norm.append(key)
        per[key] = {
            "max_mi": max_mi(prior, channel, key, tables=t),
            "mi": mi(prior, channel, key, tables=t),
            "max_rel_entropy": max_rel_entropy(prior, channel, key, tables=t),
            "inferential_eps": inferential_eps(prior, channel, key, tables=t),
        }
    return LeakageReport(
        targets=tuple(norm),
        per_target=per,
        output_entropy=output_entropy(prior, channel, budget, tables=exact),
        prior_entropy_nats=prior.entropy_nats(),
    )


def expected_distortion(prior, channel, query_values, distortion,
                        budget=None) -> float:
    """Average distortion between a deterministic dataset query and the
    outcome: sum over histograms and outcomes of occurrence mass times row
    mass times distortion(query(h), outcome).

    query_values: callable on histograms or a mapping from histogram tuples.
    distortion: callable (query value, outcome) -> nonnegative float; equal
    arguments must give zero.
    """
    _check_compatible(prior, channel)
    occ = dataset_distribution(prior)
    if callable(query_values):
        qf = query_values
    else:
        table = {tuple(k): v for k, v in query_values.items()}

        def qf(h):
            try:
                return table[h]
            except KeyError:
                raise LeakageError(f"query has no value for histogram {h}")

    total = 0.0
    for h, mass in sorted(occ.items()):
        if mass == 0:
            continue
        qv = qf(h)
        row = channel.rows[h]
        for j, label in enumerate(channel.outcomes):
            p = row[j]
            if p == 0:
                continue
            d = distortion(qv, label)
            if d < 0:
                raise LeakageError(
                    f"distortion({qv!r}, {label!r}) is negative"
                )
            if qv == label and d != 0:
                raise LeakageError(
                    f"distortion({qv!r}, {label!r}) must be zero on equal values"
                )
            total += float(mass) * float(p) * float(d)
    return total
