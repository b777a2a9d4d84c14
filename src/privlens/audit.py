"""Certification and refutation of privacy claims by direct enumeration.

Each audit returns a Verdict carrying the measured worst case, the claimed
bound, both on the ratio and the log scale, a witness for the measurement, and
a conclusiveness flag. Conclusive means the search provably covered the worst
case (an exact scan or a theorem-backed extremal family); sampled-only
evidence is never conclusive.
"""

from __future__ import annotations

import collections
import copy
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .leakage import JointTables, MaxMiPlan, max_mi, normalize_target
from .mechanism import (
    Channel,
    RatioScan,
    dp_epsilon,
    lipschitz_ratio,
)
from .prior import (
    DEFAULT_ETA,
    FamilyParams,
    JointPrior,
    _band_members,
    _layout_violations,
    block_cells,
    check_membership,
    draw_member,
    extremal_pair_table,
    extremal_pair_violations,
    extremal_pdelta_table,
    pdelta_branches,
    sample_prior,
    support_cells,
)
from .probability import (
    TOL,
    Prob,
    exp_or_inf,
    float_or_inf,
    is_inf,
    left_sum,
    log_ratio,
    parse_probability,
    ratio_div,
    tolerance_terms,
)
from .universe import check_budget


class AuditError(ValueError):
    """Bad audit parameters or a failed theorem premise."""


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    claim: str
    params: dict
    measured_ratio: Prob
    bound_ratio: Prob
    satisfied: bool
    conclusive: bool
    witness: Optional[dict] = None
    notes: Tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    @property
    def measured_nats(self) -> float:
        return log_ratio(self.measured_ratio)

    @property
    def bound_nats(self) -> float:
        return log_ratio(self.bound_ratio)


def leq_with_tol(measured, bound) -> bool:
    """measured <= bound with an absolute-plus-relative float tolerance TOL;
    exact comparison when both sides are rational. When a side is too large
    for a float, the same test is decided on the exact values
    (tolerance_terms)."""
    if is_inf(measured):
        return is_inf(bound)
    if is_inf(bound):
        return True
    if isinstance(measured, Fraction) and isinstance(bound, Fraction):
        if measured <= bound:
            return True
    m, b, slack = tolerance_terms(measured, bound)
    return m <= b + slack


def _number(value, what) -> float:
    """A real value (an int beyond the float range is +-inf), not a bool
    and not NaN."""
    try:
        x = float_or_inf(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or math.isnan(x):
        raise AuditError(f"{what} must be a number, got {value!r}")
    return x


def _index(value, what, n) -> int:
    """An individual index given as an integer or a decimal string (JSON
    object keys are strings)."""
    try:
        i = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise AuditError(
            f"{what} must be an individual index, got {value!r}"
        ) from None
    if not 0 <= i < n:
        raise AuditError(f"{what} {i} out of range for n={n}")
    return i


def _parse_bound(epsilon=None, exp_epsilon=None):
    """Return the ratio-scale bound; rational exp values stay exact."""
    if (epsilon is None) == (exp_epsilon is None):
        raise AuditError("give exactly one of epsilon or its ratio-scale exp")
    if exp_epsilon is not None:
        val = parse_probability(exp_epsilon, allow_unit_excess=True)
        if val <= 0:
            raise AuditError("a ratio-scale level must be positive")
        return val
    return exp_or_inf(_number(epsilon, "epsilon"))


# ---------------------------------------------------------------------------
# Direct family certificates
# ---------------------------------------------------------------------------


def certify_pk(channel: Channel, k: int, *, epsilon=None, exp_epsilon=None,
               budget: Optional[int] = None) -> Verdict:
    """Certify or refute the k-change privacy level of a channel.

    The iff-characterization makes the row scan exact: the channel keeps
    every family member with a dependent block of at most k individuals below
    exp(epsilon) posterior-to-prior jump iff no pair of histograms within k
    record changes has a row ratio above exp(epsilon).
    """
    if k < 1:
        raise AuditError("k must be at least 1")
    bound = _parse_bound(epsilon, exp_epsilon)
    scan = lipschitz_ratio(channel, k, budget)
    return Verdict(
        claim="k-change privacy level",
        params={"k": k, "bound_source": "epsilon" if epsilon is not None else "exp_epsilon"},
        measured_ratio=scan.ratio,
        bound_ratio=bound,
        satisfied=leq_with_tol(scan.ratio, bound),
        conclusive=True,
        witness=scan.witness(),
        notes=(scan.note,) if scan.note else (),
    )


# ---------------------------------------------------------------------------
# Worst-case search over a family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupResult:
    """Largest exp(max_mi) found over a prior family for a target.

    ratio/nats give the sup; witness describes the attaining prior and leak
    cell. conclusive is True only when some extremal construction was
    admitted and nothing sampled ever exceeded it.
    """

    ratio: Prob
    target: Tuple[int, ...]
    witness: Optional[dict]
    evaluated: Dict[str, int]
    notes: Tuple[str, ...]
    conclusive: bool

    @property
    def nats(self) -> float:
        return log_ratio(self.ratio)


def _symmetry_classes(u, others, tuples, limit=None):
    """(member count, first member) of each class of giving every individual
    in others a tuple from tuples(its alphabet), up to permuting individuals
    that share an alphabet. A class is one multiset per alphabet group, its
    count the product of the groups' multinomials; its first member lists
    the others' tuples in index order, each group's in tuples(alphabet)
    order. With a limit, only classes with at most limit tuples whose
    entries differ are made, and no multiset beyond that is listed."""
    groups = {}
    for j in others:
        groups.setdefault(u.alphabets[j], []).append(j)
    classes = [(1, 0, {})]
    for alphabet, members in groups.items():
        order = tuples(alphabet)
        moved = [t for t in order if len(set(t)) > 1]
        fixed = [t for t in order if len(set(t)) == 1]
        g = len(members)
        # options[m]: (count, first member) of each multiset with m moved.
        options = [[
            (math.factorial(g) // math.prod(map(math.factorial, (
                collections.Counter(a + b).values()))),
             dict(zip(members, sorted(a + b, key=order.index))))
            for a in itertools.combinations_with_replacement(moved, m)
            for b in itertools.combinations_with_replacement(fixed, g - m)]
            for m in range(min(g, g if limit is None else limit) + 1)]
        classes = [(count * c, moves + m, {**first, **part})
                   for count, moves, first in classes
                   for m, opts in enumerate(options[:None if limit is None
                                                    else limit - moves + 1])
                   for c, part in opts]
    return [(count, [first[j] for j in others]) for count, _, first in classes]


def _pair_classes(channel, family, tgt, budget):
    """(member count, numerator sequence, denominator sequence, dependent
    block) of each class's first member, in order of first member, for the
    near-point-mass pair candidates that the family's block budget allows.

    A candidate's sequences differ on the target group; differing
    coordinates outside it share one dependent block with the first
    differing group coordinate (otherwise they average out of the ratio),
    so at most k - 1 of them differ. Permuting individuals of one alphabet
    changes neither the (target records, histogram) joint nor the block
    sizes, sigma or the band. A class's first member is its smallest pair
    in string order. The member count is charged before any class."""
    u = channel.universe
    n = u.n
    limit = (n if family.k is None else min(family.k, n)) - 1
    others = [j for j in range(n) if j not in tgt]
    records = math.prod(len(u.alphabets[i]) for i in tgt)
    # ways[c]: the others' assignments with c differing coordinates.
    ways = [1] + [0] * limit
    for j in others:
        m = len(u.alphabets[j])
        ways = [m * w + m * (m - 1) * v for w, v in zip(ways, [0] + ways)]
    check_budget(records * (records - 1) * sum(ways), budget, "worstcase_sup")
    targets = list(itertools.permutations(
        itertools.product(*(u.alphabets[i] for i in tgt)), 2))
    classes = []
    for count, first in _symmetry_classes(
            u, others, lambda a: sorted(itertools.product(a, repeat=2)),
            limit):
        rest = dict(zip(others, first))
        outside = [j for j, (a, b) in rest.items() if a != b]
        for x_num, x_den in targets:
            pair_at = {**dict(zip(tgt, zip(x_num, x_den))), **rest}
            inside = next(i for i in tgt if pair_at[i][0] != pair_at[i][1])
            block = tuple(sorted(outside + [inside])) if outside else ()
            s_num, s_den = zip(*(pair_at[i] for i in range(n)))
            classes.append((count, s_num, s_den, block))
    return sorted(classes, key=operator.itemgetter(1, 2))


def _pair_description(s_num, s_den, block):
    return {
        "kind": "near_point_pair",
        "numerator_sequence": list(s_num),
        "denominator_sequence": list(s_den),
        "dependent_block": list(block),
    }


# What _table_max_mi gives in place of a measurement when the table's rows
# show that its max_mi cannot exceed the best so far.
_BOUNDED = object()


def _rows_bound(channel, table, best):
    """True when max_mi of every prior supported on table's sequences is at
    most best: best is a Fraction, the rows of the sequences' histograms are
    rational, and on every outcome the largest of their entries is at most
    best times the smallest. P(r | x) and P(r) are both convex combinations
    of those rows' entries at r, so P(r | x) is at most the largest and
    P(r) at least the smallest. Decided on the channel's integer rows,
    cross-multiplied; no Fraction is built."""
    if not isinstance(best, Fraction):
        return False
    u = channel.universe
    weight = u.code_weights.__getitem__
    rows = [channel._dense[u.decode_histogram(code)]
            for code in {sum(map(weight, seq)) for seq in table}]
    if None in rows:
        return False
    d = math.lcm(*(dr for _, dr in rows))
    p, q = best.numerator, best.denominator
    return all(max(col) * q <= p * min(col) for col in zip(*(
        nums if dr == d else [a * (d // dr) for a in nums]
        for nums, dr in rows)))


def _table_max_mi(channel, tgt, budget, table, d, best=None):
    """max_mi about tgt of the prior whose support is (table, d), an
    extremal construction's table, read off its support_cells after the
    table's size, the prior's support size, is charged to the JointTables
    budget, as max_mi on the prior charges. With best, the best ratio so
    far, a table whose rows bound its max_mi by best (_rows_bound) gives
    _BOUNDED and is not measured: the search keeps the first maximum, so
    it cannot change the result."""
    check_budget(len(table), budget, "JointTables")
    if _rows_bound(channel, table, best):
        return _BOUNDED
    cells, d = support_cells(channel.universe, table, d, tgt)
    t = JointTables.from_cells(cells, channel._row_views, channel.outcomes, d)
    return max_mi(None, None, None, tables=t)


def _measure_pair(channel, family, tgt, budget, s_num, s_den, block, eta,
                  best=None):
    """(max_mi of the pair prior, description) for an admitted candidate,
    (None, description) for a filtered one, without building the prior;
    _BOUNDED in place of max_mi when it cannot beat best (_table_max_mi)."""
    desc = _pair_description(s_num, s_den, block)
    if extremal_pair_violations(channel.universe, family, s_num, s_den, block,
                                eta):
        return None, desc
    table, d = extremal_pair_table(channel.universe, s_num, s_den, block, eta)
    return _table_max_mi(channel, tgt, budget, table, d, best), desc


def _pdelta_classes(channel, family, tgt, budget):
    """(member count, x_num, x_den, comp_shared, comp_num, comp_den) of each
    class's first member, like the pair classes, for the shared/private-
    complement constructions. First members and their order are those of
    the product over target records, then shared, numerator and
    denominator complements, in alphabet order.

    Only defined for singleton targets, and they occupy one full-size block,
    so they are made only when the family's block budget allows it."""
    u = channel.universe
    n = u.n
    if (len(tgt) != 1 or family.exp_delta is None
            or family.k is not None and family.k < n):
        return
    i = tgt[0]
    others = [j for j in range(n) if j != i]
    alpha_i = u.alphabets[i]
    check_budget(len(alpha_i) * (len(alpha_i) - 1) * math.prod(
        len(u.alphabets[j]) for j in others) ** 3, budget, "worstcase_sup")
    classes = sorted(
        ([[u.alphabets[j].index(t[c]) for j, t in zip(others, first)]
          for c in range(3)],
         count, [tuple(t[c] for t in first) for c in range(3)])
        for count, first in _symmetry_classes(
            u, others, lambda a: list(itertools.product(a, repeat=3))))
    for x_num, x_den in itertools.permutations(alpha_i, 2):
        for _, count, comps in classes:
            yield (count, x_num, x_den, *comps)


def _pdelta_description(x_num, x_den, comp_shared, comp_num, comp_den):
    return {
        "kind": "shared_private_complement",
        "target_records": [x_num, x_den],
        "shared_complement": list(comp_shared),
        "private_complements": [list(comp_num), list(comp_den)],
    }


def _measure_pdelta(channel, family, tgt, budget, eta, branches, admitted,
                    x_num, x_den, comp_shared, comp_num, comp_den, best=None):
    """(max_mi of the shared/private-complement prior, description) for an
    admitted candidate, (None, description) for a filtered one, read off its
    extremal_pdelta_table (branches is pdelta_branches(family.exp_delta,
    eta)) by _table_max_mi without building the prior; _BOUNDED in place
    of max_mi when it cannot beat best.

    admitted memoizes, per equality pattern of the complements, whether its
    candidates are family members; the first candidate of a pattern hands
    its table's items, at the prior's masses, to _layout_violations. The
    pattern is, per other individual, which of its shared, numerator and
    denominator symbols are equal. Two candidates of one search with the
    same pattern differ by a relabelling of each individual's alphabet (any
    two pairs of distinct target records, and any two symbol triples with
    the same equalities, are related by a permutation of the alphabet).
    Such a relabelling keeps the table's items in branch order, which
    branches merge and so every mass, and only renames the symbols of their
    sequences, the records whose marginal and conditional masses sigma and
    the band read: sigma is a minimum over unordered record pairs of an
    overlap symmetric in the pair, the band tests every record of the
    alphabet alike, and the block is always all n individuals. On floats
    the bits stay the same too: a record pair's two conditionals split at
    most four items, so an overlap sums at most two terms, and every
    marginal sums the items in table order. So the verdict depends on the
    pattern alone.
    """
    desc = _pdelta_description(x_num, x_den, comp_shared, comp_num, comp_den)
    pattern = tuple(zip(map(operator.eq, comp_shared, comp_num),
                        map(operator.eq, comp_shared, comp_den),
                        map(operator.eq, comp_num, comp_den)))
    if admitted.get(pattern) is False:
        # A filtered pattern: no table is built.
        return None, desc
    u = channel.universe
    table, d = extremal_pdelta_table(u, tgt[0], x_num, x_den, comp_shared,
                                     comp_num, comp_den, branches)
    if pattern not in admitted:
        masses = (table if d is None
                  else {seq: Fraction(a, d) for seq, a in table.items()})
        admitted[pattern] = not _layout_violations(
            u, family, [tuple(range(u.n))], [masses.items()])
        if not admitted[pattern]:
            return None, desc
    return _table_max_mi(channel, tgt, budget, table, d, best), desc


def _extremal_classes(channel, family, tgt, eta, budget, best):
    """(member count, max_mi or None or _BOUNDED, description) of each
    symmetry class, pair classes first, measured on its first member, whose
    verdict and ratio the others share; best() is the best ratio so far,
    read as each class is measured. Only complement classes read
    exp_delta."""
    for count, *layout in _pair_classes(channel, family, tgt, budget):
        yield (count, *_measure_pair(channel, family, tgt, budget, *layout,
                                     eta, best()))
    measure = None
    for count, *layout in _pdelta_classes(channel, family, tgt, budget):
        if measure is None:
            measure = functools.partial(
                _measure_pdelta, channel, family, tgt, budget, eta,
                pdelta_branches(family.exp_delta, eta), {})
        yield (count, *measure(*layout, best()))


# The sampled search saves a generator state once per this many draws
# (getstate copies the whole generator); the check of its largest member
# replays at most this many minus one draws.
_CHECKPOINT_DRAWS = 8


def _check_largest_sample(channel, family, tgt, budget, rng, q, blocks,
                          checkpoint, skip):
    """Rebuild the largest sampled member through sample_prior and check
    that it is the member that was measured: the drawn layout, a family
    member by check_membership, and max_mi on the prior equal to q. This
    member decides whether a sample beats the extremal constructions, so it
    alone gets the prior validation that the other draws leave to their
    masses. checkpoint is a generator state that skip draws precede the
    member's draw; rng itself is not moved."""
    u = channel.universe
    replay = copy.copy(rng)
    replay.setstate(checkpoint)
    for _ in range(skip):
        draw_member(u, family, replay)
    prior = sample_prior(u, family, replay)
    if (prior is None or prior.blocks != blocks
            or not check_membership(prior, family).ok
            or max_mi(prior, channel, tgt, budget) != q):
        raise AuditError(
            f"the largest sampled member (blocks {list(blocks)}) does not "
            "rebuild to the member that was measured")


def _exceeds(r, best, best_float):
    """r > best, where best_float is float_or_inf(best). A float r is
    compared with a Fraction best through best_float unless the two floats
    are equal: best_float is best rounded to the nearest float, so no float
    lies strictly between them and the float comparison is exact."""
    if isinstance(r, float) and isinstance(best, Fraction) and r != best_float:
        return r > best_float
    return r > best


def _sampled_members(channel, family, tgt, rng, samples, budget):
    """(max_mi, description) of each of samples seeded draws from the
    family, or (None, None) for a rejected draw, measured from the draw's
    masses; once the draws are done, the largest member is rebuilt as a
    prior and checked (_check_largest_sample)."""
    # One plan per block layout and set of positive cells (a band mass can
    # underflow to 0.0) measures its members from their positive masses.
    # The largest member (the first to reach the sampled maximum) is kept
    # with the last checkpoint before its draw.
    u = channel.universe
    plans = {}
    top = None
    for j in range(samples):
        if j % _CHECKPOINT_DRAWS == 0:
            checkpoint = rng.getstate()
        drawn = draw_member(u, family, rng)
        if drawn is None:
            yield None, None
            continue
        blocks, masses = drawn
        keep = tuple(tuple(p > 0 for p in ms) for ms in masses)
        check_budget(math.prod(map(sum, keep)), budget, "JointTables")
        plan = plans.get((blocks, keep))
        if plan is None:
            plan = plans[blocks, keep] = MaxMiPlan(blocks, channel, tgt, [
                list(itertools.compress(block_cells(u, b), ks))
                for b, ks in zip(blocks, keep)])
        q = plan.max_mi_masses([[p for p in ms if p > 0] for ms in masses])
        yield q, {"kind": "sampled_member",
                  "blocks": [list(b) for b in blocks]}
        if top is None or q.ratio > top[0].ratio:
            top = (q, blocks, checkpoint, j % _CHECKPOINT_DRAWS)
    if top is not None:
        _check_largest_sample(channel, family, tgt, budget, rng, *top)


def worstcase_sup(
    channel: Channel,
    family: FamilyParams,
    target,
    *,
    rng: Optional[random.Random] = None,
    samples: int = 1000,
    eta: Prob = DEFAULT_ETA,
    budget: Optional[int] = None,
) -> SupResult:
    """Search the family for the largest exp(max_mi) about the target.

    The extremal half enumerates the theorem-backed worst-case
    constructions, filters them by family membership, and runs the real
    measurement on each whose rows do not already bound it by the best so
    far (the winner is always measured, never read off the row scan, so
    agreement between the two routes is a genuine cross-check). The sampled
    half draws samples seeded random members and measures them from their
    masses; the largest is rebuilt as a prior and checked; samples = 0 runs
    the extremal half alone. If a sample ever beats every extremal
    candidate the result is demoted to inconclusive, because that would
    mean the extremal list missed the worst case.
    """
    tgt = normalize_target(channel.universe.n, target)
    best = best_float = None
    best_wit = None
    notes = []
    evaluated = {"extremal": 0, "sampled": 0, "rejected_samples": 0,
                 "filtered_candidates": 0}

    def consider(q, desc, origin, count=1):
        nonlocal best, best_float, best_wit
        evaluated[origin] += count
        if q is _BOUNDED:
            return
        r = q.ratio
        if best is None or _exceeds(r, best, best_float):
            best, best_float = r, float_or_inf(r)
            best_wit = dict(desc)
            best_wit["leak"] = q.witness
            best_wit["origin"] = origin

    # Each symmetry class is measured at most once and counts all its
    # members; one whose rows bound it by the best so far is not measured.
    for count, q, desc in _extremal_classes(channel, family, tgt, eta,
                                            budget, lambda: best):
        if q is None:
            evaluated["filtered_candidates"] += count
        else:
            consider(q, desc, "extremal", count)
    extremal_best = best
    if evaluated["extremal"] == 0:
        notes.append("no admissible extremal construction for this family")

    if samples > 0:
        if rng is None:
            rng = random.Random(0)
            notes.append("no rng given; sampled strategy seeded with 0")
        for q, desc in _sampled_members(channel, family, tgt, rng, samples,
                                        budget):
            if q is None:
                evaluated["rejected_samples"] += 1
            else:
                consider(q, desc, "sampled")

    if best is None:
        return SupResult(
            ratio=Fraction(1),
            target=tgt,
            witness=None,
            evaluated=evaluated,
            notes=tuple(notes + ["no prior evaluated; sup is vacuous"]),
            conclusive=False,
        )

    conclusive = evaluated["extremal"] > 0
    if (
        conclusive
        and best_wit["origin"] == "sampled"
        and float_or_inf(best) > float_or_inf(extremal_best) * (1 + 1e-12)
    ):
        conclusive = False
        notes.append(
            "a sampled member exceeded every extremal construction; "
            "treating the sup as inconclusive"
        )
    return SupResult(
        ratio=best,
        target=tgt,
        witness=best_wit,
        evaluated=evaluated,
        notes=tuple(notes),
        conclusive=conclusive,
    )


# ---------------------------------------------------------------------------
# Tightness of the k-change characterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessResult:
    scan: RatioScan
    achieved_ratio: Prob
    attained: bool
    target: Optional[int]
    prior_summary: Optional[dict]
    notes: Tuple[str, ...] = ()


def _first_realizing_pair(u, num_hist, den_hist, k, budget):
    """The first pair of sorted(change_sequence_pairs(u, k)) whose histograms
    are (num_hist, den_hist), found without listing the pairs or the
    realizations of num_hist.

    Sorted order compares symbol strings (BOT sorts after letters), so the
    realizations of num_hist are walked in that order, each position's
    symbols sorted, and each is paired with its smallest edit of at most k
    positions that realizes den_hist, until one pairs. The budget counts
    the steps that build the suffix sets of the walk, then each realization
    tried, at stage tightness_pk.
    """
    layers, steps = u._reachable_codes(reversed(u.alphabets), budget,
                                       "tightness_pk")
    for s_num in u._realizations(u.encode_histogram(num_hist), layers[::-1],
                                 [sorted(a) for a in u.alphabets]):
        steps += 1
        check_budget(steps, budget, "tightness_pk")
        s_den = _smallest_edit(u, s_num, den_hist, k)
        if s_den is not None:
            return s_num, s_den
    return None


def _smallest_edit(u, seq, hist, k):
    """Smallest sequence in string order that realizes hist and differs from
    seq in at most k positions, or None."""
    weights = u.code_weights
    # fewest[i] maps the code of a histogram left to place on individuals
    # i..n-1 to the fewest edits of seq[i:] that place it.
    fewest = [{0: 0}]
    for i in reversed(range(u.n)):
        layer = {}
        for code, d in fewest[-1].items():
            for sym in u.alphabets[i]:
                e = d if sym == seq[i] else d + 1
                key = code + weights[sym]
                if e <= k and e < layer.get(key, k + 1):
                    layer[key] = e
        fewest.append(layer)
    fewest.reverse()
    rest = u.encode_histogram(hist)
    if rest not in fewest[0]:
        return None
    out = []
    used = 0
    for i in range(u.n):
        for sym in sorted(u.alphabets[i]):
            e = used if sym == seq[i] else used + 1
            nxt = rest - weights[sym]
            if e + fewest[i + 1].get(nxt, k + 1) <= k:
                out.append(sym)
                rest, used = nxt, e
                break
    return tuple(out)


def tightness_pk(channel: Channel, k: int, *, eta: Prob = DEFAULT_ETA,
                 budget: Optional[int] = None) -> TightnessResult:
    """Measure the scan's worst pair as a near-point-mass member, its block
    every differing coordinate and its target the first, from its cells as
    the search measures a pair; check the leak is the row ratio within TOL."""
    scan = lipschitz_ratio(channel, k, budget)
    if scan.num_hist is None:
        return TightnessResult(
            scan=scan,
            achieved_ratio=scan.ratio,
            attained=True,
            target=None,
            prior_summary=None,
            notes=("scan was vacuous; nothing to attain",),
        )
    u = channel.universe
    found = _first_realizing_pair(u, scan.num_hist, scan.den_hist, k, budget)
    if found is None:
        # Cannot happen: the scan's pairs come from the same edit moves.
        raise AuditError("no sequence pair realizes the scan witness")
    s_num, s_den = found
    diff = tuple(i for i in range(u.n) if s_num[i] != s_den[i])
    target = diff[0]
    table, d = extremal_pair_table(u, s_num, s_den, diff, eta)
    achieved = _table_max_mi(channel, (target,), budget, table, d).ratio
    notes = ()
    if is_inf(scan.ratio):
        if is_inf(achieved):
            attained = True
        else:
            # No single prior with numerator mass eta can jump past 1/eta,
            # so an infinite level is attained exactly when the witness
            # prior realizes that per-eta ceiling.
            attained = float(achieved) * float(eta) >= 1.0 - TOL
            notes = (
                "hard distinguishing event: the level is infinite and the "
                "witness prior attains the 1/eta ceiling",
            )
    elif is_inf(achieved):
        attained = False
    else:
        a, r, slack = tolerance_terms(achieved, scan.ratio)
        attained = abs(a - r) <= slack
    return TightnessResult(
        scan=scan,
        achieved_ratio=achieved,
        attained=attained,
        target=target,
        prior_summary={
            "numerator_sequence": list(s_num),
            "denominator_sequence": list(s_den),
            "eta": str(eta),
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Interpolated bound under bounded dependence
# ---------------------------------------------------------------------------


def interpolated_bound(exp_eps_step, k: int, exp_delta):
    """exp(eps/k) * (1 - exp_delta) + exp(eps) * exp_delta on the ratio scale,
    exact on rational inputs (exp(eps) is computed as the k-th power of the
    per-step value). An infinite step, or a float k-step level too large for
    a float, gives inf; at exp_delta = 0 the latter gives the per-step level."""
    step = exp_eps_step
    if is_inf(step):
        return math.inf
    try:
        return step * (1 - exp_delta) + step**k * exp_delta
    except OverflowError:
        return math.inf if exp_delta else float_or_inf(step) * (1 - exp_delta)


def _power(base, e):
    """base**e, or inf when a float power is beyond the float range."""
    try:
        return base**e
    except OverflowError:
        return math.inf


def bound_pdelta(
    channel: Channel,
    k: int,
    *,
    exp_delta,
    epsilon=None,
    exp_eps_step=None,
    target=0,
    rng: Optional[random.Random] = None,
    samples: int = 1000,
    eta: Prob = DEFAULT_ETA,
    budget: Optional[int] = None,
) -> Verdict:
    """Check the dependence-interpolated leakage bound on a channel.

    Premise: the channel's one-change level is at most eps/k (checked).
    exp_eps_step is exp(eps/k) on the ratio scale and keeps everything exact
    when rational; give either it or the total epsilon in nats. The family is
    block size <= k with dependence coefficient <= exp_delta; the measured
    side is a genuine worst-case search over that family.
    """
    if k < 1:
        raise AuditError("k must be at least 1")
    exp_delta = parse_probability(exp_delta)
    # Read as every level is; a level in nats is split into k steps below.
    step = _parse_bound(epsilon, exp_eps_step)
    eps = None if exp_eps_step is not None else _number(epsilon, "epsilon")
    tgt = normalize_target(channel.universe.n, target)
    # The bound raises the per-step level to the k-th power exactly. Input
    # errors win over budget errors, and eps / k waits for the charge.
    check_budget(k, budget, "interpolated_bound")
    if eps is not None:
        step = exp_or_inf(eps / k)
    dp = dp_epsilon(channel, budget)
    if not leq_with_tol(dp.ratio, step):
        raise AuditError(
            f"premise fails: one-change ratio {float_or_inf(dp.ratio)!r} "
            f"exceeds per-step bound {float_or_inf(step)!r}"
        )
    family = FamilyParams(k=k, exp_delta=exp_delta)
    sup = worstcase_sup(channel, family, tgt, rng=rng, samples=samples,
                        eta=eta, budget=budget)
    bound = interpolated_bound(step, k, exp_delta)
    notes = list(sup.notes)
    if exp_delta == 0:
        notes.append("endpoint: bound equals the per-step level exactly")
    if exp_delta == 1:
        notes.append("endpoint: bound equals the full k-step level exactly")
    return Verdict(
        claim="interpolated leakage bound under bounded dependence",
        params={
            "k": k,
            "exp_delta": exp_delta,
            "exp_eps_step": step,
            "target": list(sup.target),
            "samples": samples,
        },
        measured_ratio=sup.ratio,
        bound_ratio=bound,
        satisfied=leq_with_tol(sup.ratio, bound),
        conclusive=sup.conclusive,
        witness=sup.witness,
        notes=tuple(notes),
        details={"evaluated": sup.evaluated},
    )


# ---------------------------------------------------------------------------
# Mediant necessary condition under bounded dependence
# ---------------------------------------------------------------------------


def necessary_pdelta(
    channel: Channel,
    *,
    exp_delta,
    epsilon=None,
    exp_epsilon=None,
    budget: Optional[int] = None,
) -> Verdict:
    """Exact scan of the mediant condition that bounded-dependence privacy
    at level epsilon forces on the rows.

    For each individual, each pair of their records, and each shared
    complement, the weighted numerator mixes the shared complement (weight
    exp_delta) with the most favorable private complement (weight
    1 - exp_delta); the denominator mixes the shared complement with the
    least favorable one. At exp_delta = 1 this collapses to the one-change
    scan, at exp_delta = 0 to the unrestricted pair scan. As a necessary
    condition it is theorem-backed for exp_delta >= 1/2 (noted otherwise).
    """
    exp_delta = parse_probability(exp_delta)
    bound = _parse_bound(epsilon, exp_epsilon)
    u = channel.universe
    n = u.n

    best = None
    wit = None
    n_out = len(channel.outcomes)
    weight = u.code_weights
    for i in range(n):
        alpha = u.alphabets[i]
        others = u.alphabets[:i] + u.alphabets[i + 1:]
        check_budget(
            len(alpha) * math.prod(map(len, others)) * n_out, budget,
            "necessary_pdelta",
        )
        # Complements with one code give one row per record, so the first
        # complement of each code stands for the rest.
        comps = {}
        for c in itertools.product(*others):
            comps.setdefault(sum(weight[s] for s in c), c)
        cell = {
            (x, code): channel.rows[u.decode_histogram(weight[x] + code)]
            for x in alpha for code in comps
        }
        hi = {}
        lo = {}
        for x in alpha:
            for j in range(n_out):
                vals = [cell[(x, code)][j] for code in comps]
                hi[(x, j)] = max(vals)
                lo[(x, j)] = min(vals)
        for x_num in alpha:
            for x_den in alpha:
                if x_num == x_den:
                    continue
                for code, c in comps.items():
                    row_n = cell[(x_num, code)]
                    row_d = cell[(x_den, code)]
                    for j in range(n_out):
                        num = row_n[j] * exp_delta + hi[(x_num, j)] * (1 - exp_delta)
                        den = row_d[j] * exp_delta + lo[(x_den, j)] * (1 - exp_delta)
                        r = ratio_div(num, den)
                        if r is not None and (best is None or r > best):
                            best = r
                            wit = {
                                "individual": i,
                                "numerator_record": x_num,
                                "denominator_record": x_den,
                                "shared_complement": list(c),
                                "outcome": channel.outcomes[j],
                            }
    if best is None:
        best = Fraction(1)
        wit = None
    notes = []
    if float(exp_delta) < 0.5:
        notes.append(
            "exp_delta below 1/2: the scan is exact but its reading as a "
            "necessary condition is only established for exp_delta >= 1/2"
        )
    return Verdict(
        claim="mediant necessary condition under bounded dependence",
        params={"exp_delta": exp_delta},
        measured_ratio=best,
        bound_ratio=bound,
        satisfied=leq_with_tol(best, bound),
        conclusive=True,
        witness=wit,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Averaged sufficiency under near-uniform marginals
# ---------------------------------------------------------------------------


def _band_corners(alphabet, tau):
    """Band-edge marginals for the corner stress set: the first symbol pinned
    at one band edge, the rest uniform. Corners that cannot be normalized
    inside the band are dropped."""
    m = len(alphabet)
    corners = []
    if m < 2:
        return corners
    for sign in (1, -1):
        top = exp_or_inf(sign * tau) / m
        if top >= 1:
            continue
        rest = (1 - top) / (m - 1)
        lo = math.exp(-tau) / m - TOL
        hi = exp_or_inf(tau) / m + TOL
        if rest < lo or rest > hi:
            continue
        corners.append({alphabet[0]: top, **{s: rest for s in alphabet[1:]}})
    return corners


def sufficient_nk(
    channel: Channel,
    k: int,
    *,
    epsilon=None,
    exp_epsilon=None,
    tau: float = 0.0,
    marginals: Optional[Dict[int, Dict[str, object]]] = None,
    budget: Optional[int] = None,
) -> Verdict:
    """Averaged row-ratio scan that is sufficient for the inferential level
    when all but k+1 individuals hold near-uniform independent records.

    For each target individual and each averaging set of n-k-1 others, rows
    are averaged with the averaging set's marginal weights; the remaining k
    coordinates are adversarial on both sides of the ratio. tau = 0 uses
    exact uniform weights (conclusive). tau > 0 without supplied marginals
    evaluates uniform weights plus band-edge corner assignments, which is an
    explicit heuristic (inconclusive). Supplied marginals are validated
    against the band and evaluated exactly.
    """
    u = channel.universe
    n = u.n
    if not (1 <= k <= n - 1):
        raise AuditError(
            "k must be between 1 and n-1; at k = n use the unaveraged scan"
        )
    if not tau >= 0:
        raise AuditError("tau must be nonnegative")
    bound = _parse_bound(epsilon, exp_epsilon)

    notes = []
    conclusive = True
    supplied = None
    if marginals is not None:
        if not isinstance(marginals, dict):
            raise AuditError("marginals must map individuals to tables")
        supplied = {}
        for j, table in marginals.items():
            j = _index(j, "marginals key", n)
            if not isinstance(table, dict):
                raise AuditError(f"marginal for individual {j} must be a table")
            alpha = u.alphabets[j]
            w = {sym: parse_probability(table.get(sym, 0)) for sym in alpha}
            total = left_sum(w.values())
            if abs(float(total) - 1.0) > TOL:
                raise AuditError(f"marginal for individual {j} does not normalize")
            # The band test of uniformity_band, whose TOL is on p * |alpha|.
            marginal = {(sym,): p for sym, p in w.items()}
            if not _band_members([alpha], tau, lambda _: marginal):
                raise AuditError(f"marginal for individual {j} leaves the band")
            supplied[j] = w
        notes.append("evaluated at the supplied in-band marginals")
    elif tau > 0:
        conclusive = False
        notes.append(
            "tau > 0 without supplied marginals: uniform plus band-edge "
            "corner stress set, a heuristic rather than a certificate"
        )

    best = None
    wit = None
    n_out = len(channel.outcomes)
    weight = u.code_weights
    fallback = "corner stress set too large; fell back to uniform only"

    for i in range(n):
        alpha = u.alphabets[i]
        others = [j for j in range(n) if j != i]
        for avg_set in itertools.combinations(others, n - k - 1):
            free = [u.alphabets[j] for j in others if j not in avg_set]
            avg_alphas = [u.alphabets[j] for j in avg_set]
            work = (len(alpha) * math.prod(map(len, avg_alphas))
                    * math.prod(map(len, free)) * n_out)
            check_budget(work, budget, "sufficient_nk")
            avg_cells = [(x_avg, sum(weight[s] for s in x_avg))
                         for x_avg in itertools.product(*avg_alphas)]
            # Free assignments with one code average to one row, so one code
            # stands for them all; the codes keep first-occurrence order.
            free_codes = list(dict.fromkeys(
                sum(weight[s] for s in x_free)
                for x_free in itertools.product(*free)
            ))

            # Weight assignments for the averaging set.
            options = [[(supplied or {}).get(j) or _uniform_marginal(u, j)]
                       for j in avg_set]
            if supplied is None and tau > 0:
                corners = [opts + _band_corners(u.alphabets[j], tau)
                           for opts, j in zip(options, avg_set)]
                if math.prod(map(len, corners)) <= 4096:
                    options = corners
                elif fallback not in notes:
                    notes.append(fallback)

            for weight_choice in itertools.product(*options):
                cells = []
                for x_avg, code in avg_cells:
                    w = Fraction(1)
                    for table, sym in zip(weight_choice, x_avg):
                        w = w * table[sym]
                    if w != 0:
                        cells.append((w, code))
                avg = {}
                for x_i in alpha:
                    for free_code in free_codes:
                        acc = [Fraction(0)] * n_out
                        base = weight[x_i] + free_code
                        for w, code in cells:
                            row = channel.rows[u.decode_histogram(base + code)]
                            for jj in range(n_out):
                                acc[jj] = acc[jj] + w * row[jj]
                        avg[(x_i, free_code)] = acc
                for jj in range(n_out):
                    for x_num in alpha:
                        num = max(avg[(x_num, fc)][jj] for fc in free_codes)
                        for x_den in alpha:
                            if x_num == x_den:
                                continue
                            den = min(avg[(x_den, fc)][jj] for fc in free_codes)
                            r = ratio_div(num, den)
                            if r is not None and (best is None or r > best):
                                best = r
                                wit = {
                                    "individual": i,
                                    "averaging_set": list(avg_set),
                                    "numerator_record": x_num,
                                    "denominator_record": x_den,
                                    "outcome": channel.outcomes[jj],
                                }
    if best is None:
        best = Fraction(1)
        wit = None
    return Verdict(
        claim="averaged sufficiency under near-uniform marginals",
        params={"k": k, "tau": tau},
        measured_ratio=best,
        bound_ratio=bound,
        satisfied=leq_with_tol(best, bound),
        conclusive=conclusive,
        witness=wit,
        notes=tuple(notes),
    )


def _uniform_marginal(universe, j):
    alpha = universe.alphabets[j]
    m = len(alpha)
    return {sym: Fraction(1, m) for sym in alpha}


# ---------------------------------------------------------------------------
# Group privacy
# ---------------------------------------------------------------------------


def group_certify(
    channel: Channel,
    k: int,
    group,
    *,
    epsilon=None,
    exp_epsilon=None,
    rng: Optional[random.Random] = None,
    samples: int = 500,
    eta: Prob = DEFAULT_ETA,
    budget: Optional[int] = None,
) -> Verdict:
    """Group leakage under a k-change privacy premise.

    Premise (checked): the channel's k-change level is at most epsilon. The
    measured side searches the k-block family for the largest exp(max_mi)
    about the whole group; the certified chain is measured <=
    exp(epsilon)^(ceil((s-1)/k)+1) <= exp(epsilon)^s for group size s.
    """
    if k < 1:
        raise AuditError("k must be at least 1")
    tgt = normalize_target(channel.universe.n, group)
    s = len(tgt)
    bound_unit = _parse_bound(epsilon, exp_epsilon)
    scan = lipschitz_ratio(channel, k, budget)
    if not leq_with_tol(scan.ratio, bound_unit):
        raise AuditError(
            f"premise fails: k-change ratio {float_or_inf(scan.ratio)!r} "
            f"exceeds exp(epsilon) {float_or_inf(bound_unit)!r}"
        )
    hops = math.ceil((s - 1) / k) + 1
    # Exact on a rational level; inf for an infinite level or a float overflow.
    bound_mid: Prob = _power(bound_unit, hops)
    bound_full: Prob = _power(bound_unit, s)
    family = FamilyParams(k=k)
    sup = worstcase_sup(channel, family, tgt, rng=rng, samples=samples,
                        eta=eta, budget=budget)
    chain_ok = leq_with_tol(sup.ratio, bound_mid) and leq_with_tol(
        bound_mid, bound_full
    )
    return Verdict(
        claim="group leakage chain under a k-change premise",
        params={"k": k, "group": list(tgt), "hops": hops, "samples": samples},
        measured_ratio=sup.ratio,
        bound_ratio=bound_mid,
        satisfied=chain_ok,
        conclusive=sup.conclusive,
        witness=sup.witness,
        notes=sup.notes,
        details={
            "bound_intermediate": bound_mid,
            "bound_group": bound_full,
            "premise_ratio": scan.ratio,
            "evaluated": sup.evaluated,
        },
    )


# ---------------------------------------------------------------------------
# Personalized levels
# ---------------------------------------------------------------------------


def personalized_check(
    channel: Channel,
    prior: JointPrior,
    epsilons,
    *,
    budget: Optional[int] = None,
) -> Verdict:
    """Per-individual leakage against per-individual budgets for one concrete
    prior. epsilons is a sequence of nats levels, one per individual, or a
    mapping from individual to level."""
    n = prior.universe.n
    if isinstance(epsilons, dict):
        levels = {
            _index(i, "epsilons key", n): _number(e, "epsilons entry")
            for i, e in epsilons.items()
        }
        if sorted(levels) != list(range(n)):
            raise AuditError("need a level for every individual")
        eps = [levels[i] for i in range(n)]
    else:
        if not isinstance(epsilons, (list, tuple)):
            raise AuditError("epsilons must be a list or a mapping")
        eps = [_number(e, "epsilons entry") for e in epsilons]
        if len(eps) != n:
            raise AuditError(f"need {n} levels, got {len(eps)}")
    rows = []
    all_ok = True
    worst_ratio: Prob = Fraction(1)
    worst_bound: Prob = math.inf
    for i in range(n):
        q = max_mi(prior, channel, i, budget)
        b = exp_or_inf(eps[i])
        ok = leq_with_tol(q.ratio, b)
        all_ok = all_ok and ok
        rows.append({
            "individual": i,
            "measured_ratio": q.ratio,
            "measured_nats": q.nats,
            "bound_nats": eps[i],
            "satisfied": ok,
            "witness": q.witness,
        })
        if (float_or_inf(q.ratio) / max(b, 1e-300)
                > float_or_inf(worst_ratio) / max(worst_bound, 1e-300)):
            worst_ratio = q.ratio
            worst_bound = b
    return Verdict(
        claim="personalized per-individual levels",
        params={"levels_nats": eps},
        measured_ratio=worst_ratio,
        bound_ratio=worst_bound,
        satisfied=all_ok,
        conclusive=True,
        witness=None,
        details={"per_individual": rows},
    )
