"""Structured adversary priors: block-factorized joints, dependence measures,
family membership, samplers, and worst-case constructions.

A prior factorizes over disjoint blocks of individuals. Each block carries an
explicit probability table over the product of its members' alphabets; blocks
are mutually independent. This covers everything from fully independent
adversaries to a fully dependent joint (one block containing everyone).

The worst-case search measures candidates without building their priors:
a MemberSampler hands out sampled members' layouts and masses, and each
extremal construction gives its support as one table, extremal_pair_table
for a near-point-mass pair and extremal_pdelta_table for a shared/private
complement, which support_cells groups into (records key, histogram) cells.
A pair's two-point blocks and their checks are derived once, by
_pair_groups, which extremal_pair_prior and extremal_pair_table read; the
search derives them once per class and hands them to _pair_table and to
extremal_pair_violations. Membership is read off the layout by
extremal_pair_violations for a pair, and off the table by
_layout_violations for a complement, as it reads a draw's layout.
tightness_pk measures its witness pair from its table too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .probability import (
    DEFAULT_ETA,
    TOL,
    Prob,
    entropy_nats,
    exp_or_inf,
    float_or_inf,
    left_sum,
    parse_probability,
    scale_to_integers,
)
from .universe import RecordUniverse


class PriorError(ValueError):
    """Malformed prior: bad blocks, bad tables, bad normalization."""


# ---------------------------------------------------------------------------
# The prior itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointPrior:
    """Block-factorized joint distribution over dataset sequences.

    blocks
        Disjoint index tuples covering every individual exactly once. Each
        block is sorted ascending; blocks are ordered by first element.
    tables
        One mapping per block from value tuples (aligned with the block's
        sorted indices) to probabilities. Zero-mass cells may be omitted.

    When every table holds only ints and Fractions, the prior keeps each
    table as integer numerators over its own denominator, which
    support_size and histogram_cells read; the tables are not to be
    changed after construction.
    """

    universe: RecordUniverse
    blocks: Tuple[Tuple[int, ...], ...]
    tables: Tuple[Dict[Tuple[str, ...], Prob], ...]

    def __post_init__(self):
        u = self.universe
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        order = sorted(range(len(blocks)), key=lambda j: blocks[j][0] if blocks[j] else -1)
        blocks = tuple(blocks[j] for j in order)
        tables = tuple(dict(self.tables[j]) for j in order)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "tables", tables)

        seen = set()
        for b in blocks:
            if not b:
                raise PriorError("empty block")
            for i in b:
                if i in seen:
                    raise PriorError(f"individual {i} appears in two blocks")
                if not (0 <= i < u.n):
                    raise PriorError(f"block index {i} out of range for n={u.n}")
                seen.add(i)
        if len(seen) != u.n:
            missing = sorted(set(range(u.n)) - seen)
            raise PriorError(f"blocks do not cover individuals {missing}")

        alphabets = u.alphabets
        numerators = []
        for b, table in zip(blocks, tables):
            if not table:
                raise PriorError(f"block {b} has an empty table")
            # The sign and sum of a table of ints and Fractions are checked
            # on its integer numerators over the lcm d of its denominators.
            scaled = scale_to_integers(table.values())
            total = 0
            for key, p in zip(table, table.values() if scaled is None
                              else scaled[0]):
                key = tuple(key)
                if len(key) != len(b):
                    raise PriorError(f"table key {key} does not match block {b}")
                for i, sym in zip(b, key):
                    if sym not in alphabets[i]:
                        raise PriorError(
                            f"symbol {sym!r} not in alphabet of individual {i}"
                        )
                # Negated tests, so that NaN fails them.
                if not p >= 0:
                    raise PriorError(f"negative probability at {key} in block {b}")
                total += p
            if scaled is None:
                numerators = None
            else:
                # int / int is the correctly rounded float of the exact sum,
                # the same float as float(Fraction(total, d)).
                total /= scaled[1]
                if numerators is not None:
                    numerators.append(scaled)
            if not abs(float(total) - 1.0) <= TOL:
                raise PriorError(
                    f"table of block {b} sums to {float(total)!r}, expected 1"
                )
        # (numerators, d) per block, aligned with its table, when every
        # table is rational; None otherwise.
        object.__setattr__(self, "_numerators",
                           None if numerators is None else tuple(numerators))

    # -- basic queries ------------------------------------------------------

    def max_block_size(self) -> int:
        return max(len(b) for b in self.blocks)

    def prob(self, seq: Sequence[str]) -> Prob:
        """Probability of a full dataset sequence."""
        seq = self.universe.validate_sequence(seq)
        out: Prob = Fraction(1)
        for b, table in zip(self.blocks, self.tables):
            key = tuple(seq[i] for i in b)
            cell = table.get(key, 0)
            if cell == 0:
                return 0 * out
            out = out * cell
        return out

    def iter_support(self) -> Iterator[Tuple[Tuple[str, ...], Prob]]:
        """Yield (sequence, probability) over the strictly positive support."""
        block_items = []
        for table in self.tables:
            items = [(k, p) for k, p in table.items() if p > 0]
            block_items.append(items)
        for combo in itertools.product(*block_items):
            seq = [None] * self.universe.n
            p: Prob = Fraction(1)
            for (key, cell), b in zip(combo, self.blocks):
                for i, sym in zip(b, key):
                    seq[i] = sym
                p = p * cell
            yield tuple(seq), p

    def support_size(self) -> int:
        if self._numerators is not None:
            return prod(len(nums) - nums.count(0)
                        for nums, _ in self._numerators)
        return prod(
            sum(1 for p in table.values() if p > 0) for table in self.tables
        )

    def marginal(self, indices: Sequence[int]) -> Dict[Tuple[str, ...], Prob]:
        """Marginal over a sorted tuple of individuals.

        Blocks not intersecting the index set integrate out exactly.
        """
        idx = tuple(sorted(set(indices)))
        if not idx:
            raise PriorError("marginal needs at least one individual")
        partial: Dict[Tuple[int, ...], Dict[Tuple[str, ...], Prob]] = {}
        for b, table in zip(self.blocks, self.tables):
            keep = tuple(i for i in b if i in idx)
            if not keep:
                continue
            partial[keep] = _aggregate(table.items(),
                                       [b.index(i) for i in keep])
        out: Dict[Tuple[str, ...], Prob] = {(): Fraction(1)}
        covered: Tuple[int, ...] = ()
        for keep, agg in partial.items():
            nxt: Dict[Tuple[str, ...], Prob] = {}
            merged = covered + keep
            order = sorted(range(len(merged)), key=lambda j: merged[j])
            for key0, p0 in out.items():
                for key1, p1 in agg.items():
                    raw = key0 + key1
                    nxt_key = tuple(raw[j] for j in order)
                    nxt[nxt_key] = nxt.get(nxt_key, 0) + p0 * p1
            covered = tuple(sorted(merged))
            out = nxt
        return out

    def entropy_nats(self) -> float:
        """Entropy of the full joint; blocks are independent so it is the sum
        of the per-block table entropies."""
        return left_sum(entropy_nats(t.values()) for t in self.tables)

    def describe(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "support_size": self.support_size(),
            "max_block_size": self.max_block_size(),
        }


def _aggregate(items, pos) -> Dict[Tuple[str, ...], Prob]:
    """Masses of a block's (cell, mass) items summed by the cell's symbols
    at positions pos, zero masses skipped, each sum started from int 0."""
    agg: Dict[Tuple[str, ...], Prob] = {}
    for key, p in items:
        if p == 0:
            continue
        sub = tuple(key[j] for j in pos)
        agg[sub] = agg.get(sub, 0) + p
    return agg


def independent_prior(
    universe: RecordUniverse, marginals: Sequence[Dict[str, Prob]]
) -> JointPrior:
    """All-singleton-blocks prior from per-individual marginals."""
    if len(marginals) != universe.n:
        raise PriorError("need one marginal per individual")
    blocks = tuple((i,) for i in range(universe.n))
    tables = tuple(
        {(sym,): p for sym, p in m.items()} for m in marginals
    )
    return JointPrior(universe, blocks, tables)


def prior_from_flat(
    universe: RecordUniverse,
    blocks: Sequence[Sequence[int]],
    flat_tables: Sequence[Sequence],
) -> JointPrior:
    """Build from flat arrays in row-major order over each block's alphabets
    (block indices sorted ascending; alphabets in universe order)."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    for b in blocks:
        for i in b:
            if not 0 <= i < universe.n:
                raise PriorError(
                    f"block index {i} out of range for n={universe.n}"
                )
    if len(flat_tables) != len(blocks):
        raise PriorError("need one table per block")
    tables = []
    for b, flat in zip(blocks, flat_tables):
        keys = list(itertools.product(*(universe.alphabets[i] for i in b)))
        if len(flat) != len(keys):
            raise PriorError(
                f"block {b} expects {len(keys)} entries, got {len(flat)}"
            )
        table = {}
        for key, raw in zip(keys, flat):
            p = parse_probability(raw)
            if p != 0:
                table[key] = p
        tables.append(table)
    return JointPrior(universe, blocks, tuple(tables))


# ---------------------------------------------------------------------------
# Derived distributions
# ---------------------------------------------------------------------------


def histogram_masses(
    prior: JointPrior, target: Sequence[int] = ()
) -> Dict[Tuple[Tuple[str, ...], Tuple[int, ...]], Prob]:
    """Joint mass of (the target's records, the dataset histogram).

    Keys are (records key, histogram): the records of the sorted distinct
    target indices, in index order, and the histogram of the whole sequence.
    Masses are the sums of ``iter_support`` masses over the sequences with
    that key and histogram, without visiting the sequences (see
    HistogramPlan). Sums of Fractions stay exact.
    """
    cells, d = histogram_cells(prior, target)
    if d is None:
        return dict(cells)
    return {key: Fraction(a, d) for key, a in cells}


def histogram_cells(prior: JointPrior, target: Sequence[int] = ()):
    """(cells, d): the ((records key, histogram), mass) cells of
    histogram_masses in its order. When every table is rational, each mass
    is an integer numerator over d, the product of the tables' own
    denominators, and no Fraction is built; otherwise d is None and the
    masses are those of histogram_masses."""
    scaled = prior._numerators
    values = ([t.values() for t in prior.tables] if scaled is None
              else [nums for nums, _ in scaled])
    cells = [[key for key, p in zip(t, vs) if p > 0]
             for t, vs in zip(prior.tables, values)]
    plan = HistogramPlan(prior.universe, prior.blocks, target, cells)
    positive = ([p for p in vs if p > 0] for vs in values)
    if scaled is None:
        return list(zip(plan.keys, plan.masses(positive))), None
    return (list(zip(plan.keys, plan.numerators(positive))),
            prod(d for _, d in scaled))


class HistogramPlan:
    """histogram_masses for every prior with one block layout and, per
    block, one list of positive cells in table order.

    Each block's cells are aggregated by (their target records, their
    histogram code), then convolved into (partial records key, partial
    histogram code) states one block at a time, each new state in order of
    first appearance over the states x local pairs. The states number at
    most the target's record combinations times the achievable histograms,
    so the work grows polynomially in n for a fixed alphabet.

    The plan does that bookkeeping once and keeps indices: per block, each
    cell's local index (none when each cell is its own local, in cell
    order), and per later block the convolution as (dst,
    state, local) triples. keys lists each final state's (records key,
    histogram); masses computes the states' masses for one prior.
    """

    def __init__(self, universe: RecordUniverse, blocks, target, cells):
        weight = universe.code_weights.__getitem__
        tgt = set(target)
        # Target indices in the order the blocks contribute them to a state key.
        contributed = []
        self._blocks = []
        states = None
        for b, keys in zip(blocks, cells):
            pos = [j for j, i in enumerate(b) if i in tgt]
            contributed.extend(b[j] for j in pos)
            local: Dict[Tuple[Tuple[str, ...], int], int] = {}
            index = [
                local.setdefault(
                    (tuple(map(key.__getitem__, pos)), sum(map(weight, key))),
                    len(local),
                )
                for key in keys
            ]
            if states is None:
                steps, states = None, list(local)
            else:
                nxt: Dict[Tuple[Tuple[str, ...], int], int] = {}
                steps = [
                    (nxt.setdefault((key0 + key1, code0 + code1), len(nxt)),
                     s, loc)
                    for s, (key0, code0) in enumerate(states)
                    for loc, (key1, code1) in enumerate(local)
                ]
                states = list(nxt)
            # A block whose cells each have their own local, in cell order,
            # keeps no index: its masses are its locals.
            if len(local) == len(keys):
                index = None
            self._blocks.append((index, len(local), steps, len(states)))
        order = sorted(range(len(contributed)), key=contributed.__getitem__)
        decode = universe.decode_histogram
        self.keys = [(tuple(map(key.__getitem__, order)), decode(code))
                     for key, code in states]

    def masses(self, masses) -> list:
        """The final states' masses, aligned with keys; masses holds, per
        block, its cells' masses aligned with the plan's cells."""
        return self._convolve(masses, int_to_fraction=True)

    def numerators(self, numerators) -> list:
        """masses on integer numerators: each block's cells' numerators over
        the block's own denominator give the final states' numerators over
        the product of those denominators, all ints."""
        return self._convolve(numerators, int_to_fraction=False)

    def _convolve(self, masses, int_to_fraction):
        # Every local index and every state receives at least one term, and
        # each sum starts from an int 0: 0 + x is x itself, of the same type
        # and bits, for an int, a float or a Fraction. So a block without
        # an index reads its masses as they are.
        states = None
        for ms, (index, size, steps, n_states) in zip(masses, self._blocks):
            if index is None:
                local = list(ms)
            else:
                local = [0] * size
                for loc, p in zip(index, ms):
                    local[loc] += p
            if steps is None:
                # iter_support starts each mass at Fraction(1), and 1 * p is
                # p itself for a float or a Fraction; only an int changes
                # type.
                states = [Fraction(m) if int_to_fraction and isinstance(m, int)
                          else m for m in local]
                continue
            nxt = [0] * n_states
            for dst, s, loc in steps:
                nxt[dst] += states[s] * local[loc]
            states = nxt
        return states


def dataset_distribution(prior: JointPrior) -> Dict[Tuple[int, ...], Prob]:
    """Distribution over achievable histograms induced by the prior."""
    return {h: m for (_, h), m in histogram_masses(prior).items()}


def verify_factorization(prior: JointPrior, full_table):
    """Check a claimed full joint table against the block factorization.

    full_table maps full sequences to probabilities; missing sequences count
    as zero. Returns (ok, max_abs_error, witness_sequence), ok when the
    error is at most TOL.
    """
    table = {}
    for key, raw in full_table.items():
        seq = prior.universe.validate_sequence(key)
        table[seq] = parse_probability(raw)
    worst = 0.0
    witness = None
    for seq in prior.universe.iter_sequences():
        want = table.get(seq, 0)
        got = prior.prob(seq)
        err = abs(float(got) - float(want))
        if err > worst:
            worst = err
            witness = seq
    return worst <= TOL, worst, witness


# ---------------------------------------------------------------------------
# Dependence coefficient
# ---------------------------------------------------------------------------


def sigma(prior: JointPrior):
    r"""Worst-case dependence coefficient of the prior.

    For each individual i and each pair of positive-probability records
    (x, x'), the overlap of the two conditional distributions of everyone
    else is \sum_c min(P(c | x), P(c | x')). Blocks other than i's own cancel
    from the overlap, so only i's block complement is enumerated. sigma is one
    minus the smallest overlap; an independent individual contributes overlap
    one. Returns (value, witness) where witness is (i, x, x') or None when no
    individual admits two positive records.
    """
    alphabets = prior.universe.alphabets
    return _sigma([(_IndexPlan(alphabets, b, list(table)), list(table.values()))
                   for b, table in zip(prior.blocks, prior.tables)])


class _IndexPlan:
    """The indices through which sigma and the band marginals read one
    block's masses, for one order of its cells.

    Per position of the block: its individual and alphabet, each record's
    cells (aligned with the alphabet, empty for a record no cell holds),
    and, for each pair of held records in alphabet order, the (cell,
    partner cell) pairs of the first record's cells, in cell order, whose
    complement (the cell without this position) the second record also
    holds. A cell's record and complement determine it, so each
    conditional mass sigma reads is one cell's mass.
    """

    def __init__(self, alphabets, block, cells):
        self.block = block
        self.positions = []
        for pos, i in enumerate(block):
            alphabet = alphabets[i]
            rank = {v: a for a, v in enumerate(alphabet)}
            records = [[] for _ in alphabet]
            # Each cell's group: its complement's cells by record.
            group_of = {}
            groups = {}
            for c, key in enumerate(cells):
                a = rank.get(key[pos])
                if a is not None:
                    records[a].append(c)
                    group = group_of[c] = groups.setdefault(
                        key[:pos] + key[pos + 1:], {})
                    group[a] = c
            held = [a for a, cs in enumerate(records) if cs]
            pairs = []
            for x, a in enumerate(held):
                for b in held[x + 1:]:
                    pairs.append((a, b, [(c, group_of[c][b])
                                         for c in records[a]
                                         if b in group_of[c]]))
            self.positions.append((i, alphabet, records, pairs))

    def marginal(self, pos, masses):
        """The masses of the individual at position pos, summed by record
        in alphabet order from each sum's first term, zero masses skipped;
        0 for a record with no positive mass. masses is aligned with the
        cells."""
        out = []
        for cs in self.positions[pos][2]:
            total = None
            for c in cs:
                p = masses[c]
                if p == 0:
                    continue
                total = p if total is None else total + p
            out.append(0 if total is None else total)
        return out


def _sigma(layout):
    """sigma over layout, (plan, masses) pairs in block order, where plan
    is the block's _IndexPlan and masses is aligned with its cells. Zero
    masses are skipped, and every sum starts from its first term: an int 0
    + Fraction takes the slow operator fallback."""
    best = None
    witness = None
    for plan, ms in layout:
        for pos, (i, alphabet, _, pairs) in enumerate(plan.positions):
            if not pairs:
                continue
            marg = plan.marginal(pos, ms)
            for a, b, links in pairs:
                ma, mb = marg[a], marg[b]
                if not (ma > 0 and mb > 0):
                    continue
                overlap = None
                for ca, cb in links:
                    pa, pb = ms[ca], ms[cb]
                    if pa == 0 or pb == 0:
                        continue
                    m = min(pa / ma, pb / mb)
                    overlap = m if overlap is None else overlap + m
                if overlap is None:
                    # No shared complement: the overlap is an int 0, so
                    # sigma is an int 1.
                    overlap = 0
                if best is None or overlap < best:
                    best = overlap
                    witness = (i, alphabet[a], alphabet[b])
    if best is None:
        return Fraction(0), None
    return 1 - best, witness


# ---------------------------------------------------------------------------
# Uniformity band
# ---------------------------------------------------------------------------


def uniformity_band(prior: JointPrior, tau) -> Tuple[int, Tuple[int, ...]]:
    """Individuals whose marginal is within exp(+-tau) of uniform.

    The test is exp(-tau) <= p(x) * |alphabet| <= exp(tau) for every admissible
    record x (records of probability zero fail for finite tau); a tau whose
    exp(tau) is beyond the float range bounds nothing, like tau = inf.
    Returns (count, sorted tuple of in-band individuals).
    """
    if tau is None:
        raise PriorError("tau is required for a band computation")
    tau = float_or_inf(tau)
    if not tau >= 0:
        raise PriorError("tau must be nonnegative")
    alphabets = prior.universe.alphabets

    def marginal(i):
        marg = prior.marginal((i,))
        return [marg.get((sym,), 0) for sym in alphabets[i]]

    in_band = _band_members(alphabets, tau, marginal)
    return len(in_band), in_band


def _band_members(alphabets, tau, marginal) -> Tuple[int, ...]:
    """The individuals in the exp(+-tau) band, for a float tau >= 0, where
    marginal(i) gives the mass of each record of individual i in alphabet
    order; it is not called when the band is unbounded."""
    if math.isinf(exp_or_inf(tau)):
        return tuple(range(len(alphabets)))
    lo = math.exp(-tau) - TOL
    hi = math.exp(tau) + TOL
    in_band = []
    for i, alphabet in enumerate(alphabets):
        m = len(alphabet)
        if all(lo <= float(p) * m <= hi for p in marginal(i)):
            in_band.append(i)
    return tuple(in_band)


# ---------------------------------------------------------------------------
# Families and membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Constraints defining a prior family. Every field is optional.

    k           largest allowed dependent block
    exp_delta   cap on the dependence coefficient sigma (stored on the ratio
                scale; delta = log(exp_delta) <= 0)
    ell, tau    at least ell individuals within the exp(+-tau) uniformity band
    """

    k: Optional[int] = None
    exp_delta: Optional[Prob] = None
    ell: Optional[int] = None
    tau: Optional[float] = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool):
                raise PriorError(f"{name} must be a number, got {value!r}")
        # Negated ranges: NaN fails every comparison, so it is rejected.
        if self.k is not None and not self.k >= 1:
            raise PriorError("k must be at least 1")
        if self.exp_delta is not None and not 0 <= self.exp_delta <= 1:
            raise PriorError("exp_delta must be in [0, 1]")
        if self.ell is not None and not self.ell >= 0:
            raise PriorError("ell must be nonnegative")
        if self.tau is not None and not float_or_inf(self.tau) >= 0:
            raise PriorError("tau must be nonnegative")

    @classmethod
    def of(cls, k=None, delta=None, exp_delta=None, ell=None, tau=None):
        """Normalize the two delta spellings; exp_delta wins when both given
        and consistent, conflicts raise. A bool is no number."""
        if exp_delta is not None and not isinstance(exp_delta, (int, float, Fraction)):
            exp_delta = parse_probability(exp_delta)
        if delta is not None:
            if isinstance(delta, bool):
                raise PriorError(f"delta must be a number, got {delta!r}")
            if delta > 0:
                raise PriorError("delta must be nonpositive")
            from_delta = math.exp(delta)
            if exp_delta is None:
                exp_delta = from_delta
            elif abs(float_or_inf(exp_delta) - from_delta) > TOL:
                raise PriorError("delta and exp_delta disagree")
        return cls(k=k, exp_delta=exp_delta, ell=ell, tau=tau)

    def is_vacuous(self) -> bool:
        return (
            self.k is None
            and self.exp_delta is None
            and self.ell is None
            and self.tau is None
        )

    def effective_band(self):
        """(tau, ell) with the vacuous completions applied, or None if the
        band constraint is absent entirely."""
        if self.ell is None and self.tau is None:
            return None
        tau = math.inf if self.tau is None else float_or_inf(self.tau)
        ell = 0 if self.ell is None else self.ell
        return tau, ell

    def describe(self) -> dict:
        out = {}
        if self.k is not None:
            out["k"] = self.k
        if self.exp_delta is not None:
            out["exp_delta"] = self.exp_delta
        if self.ell is not None:
            out["ell"] = self.ell
        if self.tau is not None:
            out["tau"] = self.tau
        return out


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    violations: Tuple[str, ...]
    notes: Tuple[str, ...]
    max_block_size: int
    sigma_value: Optional[Prob] = None
    sigma_witness: Optional[tuple] = None
    band_count: Optional[int] = None
    in_band: Optional[Tuple[int, ...]] = None


def check_membership(prior: JointPrior, family: FamilyParams) -> MembershipReport:
    """Decide family membership, reporting every violated constraint."""
    notes = []
    max_block = prior.max_block_size()
    sig_val = None
    sig_wit = None
    if family.exp_delta is not None:
        sig_val, sig_wit = sigma(prior)
    band_count = None
    in_band = None
    band = family.effective_band()
    if band is not None:
        if family.tau is None:
            notes.append("ell given without tau: band treated as unbounded")
        if family.ell is None:
            notes.append("tau given without ell: constraint is vacuous")
        band_count, in_band = uniformity_band(prior, band[0])
    if family.is_vacuous():
        notes.append("family has no constraints; every prior is a member")
    violations = membership_violations(family, max_block, sig_val, band_count)
    return MembershipReport(
        ok=not violations,
        violations=tuple(violations),
        notes=tuple(notes),
        max_block_size=max_block,
        sigma_value=sig_val,
        sigma_witness=sig_wit,
        band_count=band_count,
        in_band=in_band,
    )


def membership_violations(family: FamilyParams, max_block: int, sigma_value,
                          band_count) -> list:
    """The violated constraints of a prior with this largest block, sigma
    and band count, as check_membership words them; sigma_value is read
    only when the family caps dependence and band_count only when it has a
    band, so either may be None otherwise."""
    violations = []
    if family.k is not None and max_block > family.k:
        violations.append(
            f"largest dependent block has size {max_block}, allowed {family.k}"
        )
    if (family.exp_delta is not None
            and float(sigma_value) > float(family.exp_delta) + TOL):
        violations.append(
            f"dependence coefficient {float(sigma_value)!r} exceeds "
            f"exp_delta {float(family.exp_delta)!r}"
        )
    band = family.effective_band()
    if band is not None and band_count < band[1]:
        violations.append(
            f"only {band_count} individuals in the uniformity band, "
            f"need {band[1]}"
        )
    return violations


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def _dirichlet(rng, m):
    # Uniform on the simplex via normalized exponentials; only rng.random()
    # is used so the stream is stable across Python versions.
    es = [-math.log(max(rng.random(), 1e-300)) for _ in range(m)]
    s = left_sum(es)
    return [e / s for e in es]


def sample_prior(
    universe: RecordUniverse,
    family: FamilyParams,
    rng,
    *,
    tries: int = 200,
) -> Optional[JointPrior]:
    """Draw a random family member, or None when rejection keeps failing.

    The block structure follows the family's dependent-block reading: one
    block of size at most k (possibly size one) and singletons elsewhere.
    exp_delta == 0 forces full independence. Band individuals are kept as
    singleton blocks so their marginals can be drawn inside the band
    directly; tau == 0 marginals are exactly uniform. Returns the prior of
    draw_member's layout and masses.
    """
    drawn = draw_member(universe, family, rng, tries=tries)
    return None if drawn is None else layout_prior(universe, *drawn)


def draw_member(universe: RecordUniverse, family: FamilyParams, rng, *,
                tries: int = 200):
    """sample_prior's member as (blocks, masses), or None: one draw of a
    MemberSampler made for this call."""
    return MemberSampler(universe, family).draw(rng, tries=tries)


class MemberSampler:
    """sample_prior's draws from one family over one universe, as (blocks,
    masses) without building a JointPrior: the same rng stream, tries and
    rejection.

    What depends on the universe and family alone (the block limit, the
    band, each individual's alphabet size and uniform masses) is computed
    once, and each dependent block's cells and _IndexPlan once per block,
    when membership reads the masses, so a sampler kept for many draws
    sets nothing up per draw. Membership is read off the layout and the
    masses (_layout_violations).
    """

    def __init__(self, universe: RecordUniverse, family: FamilyParams):
        n = universe.n
        self.universe = universe
        self.family = family
        band = family.effective_band()
        ell = 0
        tau = math.inf
        if band is not None:
            tau, ell = band
            ell = min(ell, n)
        self._ell = ell
        self._tau = tau
        self._bounded = not math.isinf(exp_or_inf(tau))
        # exp_delta == 0 forces full independence.
        if family.exp_delta is not None and family.exp_delta == 0:
            self._k = 1
        else:
            self._k = n if family.k is None else min(family.k, n)
        self._sizes = [len(a) for a in universe.alphabets]
        self._uniform = [Fraction(1, m) for m in self._sizes]
        # Membership reads the masses only when the family caps dependence
        # or has a band; only then does a dependent block need its plan.
        self._reads_masses = family.exp_delta is not None or band is not None
        self._plans = {}

    def draw(self, rng, *, tries: int = 200):
        """A member as (blocks, masses), or None when all tries draws are
        rejected. blocks are in the prior's order (by first individual) and
        masses holds, per block, the mass of every cell of the block in
        block_cells order."""
        n = self.universe.n
        ell, tau, k = self._ell, self._tau, self._k
        sizes = self._sizes
        for _ in range(tries):
            band_set = sorted(rng.sample(range(n), ell)) if ell else ()
            free = ([i for i in range(n) if i not in band_set] if ell
                    else range(n))
            max_b = min(k, max(len(free), 1))
            b_size = 1 if max_b <= 1 else rng.randint(1, max_b)
            if b_size > 1 and len(free) >= b_size:
                members = tuple(sorted(rng.sample(free, b_size)))
                if self._reads_masses and members not in self._plans:
                    self._plans[members] = _IndexPlan(
                        self.universe.alphabets, members,
                        block_cells(self.universe, members))
                # The dependent block's masses are drawn before the
                # singletons'.
                joint = _dirichlet(rng, prod(sizes[i] for i in members))
            else:
                members = ()

            blocks = []
            masses = []
            for i in range(n):
                if i in members:
                    if i == members[0]:
                        blocks.append(members)
                        masses.append(joint)
                    continue
                m = sizes[i]
                if i in band_set and self._bounded:
                    if tau == 0:
                        ws = [self._uniform[i]] * m
                    else:
                        raw = [math.exp(rng.uniform(-tau, tau))
                               for _ in range(m)]
                        s = left_sum(raw)
                        ws = [w / s for w in raw]
                else:
                    ws = _dirichlet(rng, m)
                blocks.append((i,))
                masses.append(ws)
            blocks = tuple(blocks)
            if not _layout_violations(self.universe.alphabets, self.family,
                                      blocks, masses, self._plans):
                return blocks, masses
        return None


def _layout_violations(alphabets, family, blocks, masses, plans) -> list:
    """membership_violations of the prior whose block blocks[j] gives
    masses[j][c] to its c-th cell, read off the layout and the masses
    without building the prior. plans maps every block of two or more
    individuals, and any singleton whose masses do not follow its
    individual's alphabet, to the _IndexPlan of its cells; the masses of
    any other singleton follow the alphabet. sigma is computed only when
    the family caps dependence and the band only when it has one."""
    band = family.effective_band()
    sig = count = None
    if family.exp_delta is not None:
        # A singleton block's two records share the empty complement, so its
        # overlap is exactly 1 and never decides the verdict.
        sig, _ = _sigma([(plans[b], ms) for b, ms in zip(blocks, masses)
                         if len(b) > 1])
    if band is not None:
        where = {i: (b, pos, ms) for b, ms in zip(blocks, masses)
                 for pos, i in enumerate(b)}

        def marginal(i):
            b, pos, ms = where[i]
            plan = plans.get(b)
            return ms if plan is None else plan.marginal(pos, ms)

        count = len(_band_members(alphabets, band[0], marginal))
    return membership_violations(family, max(map(len, blocks)), sig, count)


def block_cells(universe: RecordUniverse, block) -> list:
    """Every cell of a block: its value tuples in itertools.product order
    over its individuals' alphabets."""
    return list(itertools.product(*(universe.alphabets[i] for i in block)))


def layout_prior(universe: RecordUniverse, blocks, masses) -> JointPrior:
    """The prior whose block blocks[j] gives masses[j][c] to its c-th cell
    in block_cells order; zero masses stay in the tables."""
    return JointPrior(universe, tuple(blocks), tuple(
        dict(zip(block_cells(universe, b), ms))
        for b, ms in zip(blocks, masses)
    ))


# ---------------------------------------------------------------------------
# Worst-case constructions
# ---------------------------------------------------------------------------


def _check_eta(eta):
    # A Fraction's denominator is positive, so its bounds are read off the
    # integers without Fraction comparisons.
    if not (0 < eta.numerator < eta.denominator if isinstance(eta, Fraction)
            else 0 < eta < 1):
        raise PriorError("eta must be strictly between 0 and 1")


def _pair_groups(seq_num, seq_den, block, eta) -> list:
    """The two-point blocks of the near-point-mass pair on seq_num and
    seq_den, in block order: the dependent block (every differing
    coordinate when block is None) and a singleton for each other
    differing coordinate. Raises PriorError for an eta outside (0, 1),
    identical sequences, or a block coordinate that does not differ."""
    _check_eta(eta)
    diff = [i for i, (a, b) in enumerate(zip(seq_num, seq_den)) if a != b]
    if not diff:
        raise PriorError("sequences are identical; no pair to concentrate on")
    block = tuple(diff if block is None else sorted(set(block)))
    for i in block:
        if i not in diff:
            raise PriorError(
                f"coordinate {i} in the dependent block does not differ"
            )
    return sorted(([block] if block else [])
                  + [(i,) for i in diff if i not in block])


def extremal_pair_prior(
    universe: RecordUniverse,
    seq_num: Sequence[str],
    seq_den: Sequence[str],
    *,
    block: Optional[Sequence[int]] = None,
    eta: Prob = DEFAULT_ETA,
) -> JointPrior:
    """Near-point-mass prior concentrated on a pair of sequences.

    Each two-point block of _pair_groups gives mass eta to its seq_num
    values and 1 - eta to its seq_den values; agreeing coordinates are
    point masses. With block = all differing coordinates (the default) this
    is the dependent-block worst case; leaving some out models a group
    adversary with independent per-member uncertainty.
    """
    seq_num = universe.validate_sequence(seq_num)
    seq_den = universe.validate_sequence(seq_den)
    groups = _pair_groups(seq_num, seq_den, block, eta)
    points = [i for i in range(universe.n) if seq_num[i] == seq_den[i]]
    tables = [{tuple(seq_num[i] for i in g): eta,
               tuple(seq_den[i] for i in g): 1 - eta} for g in groups]
    tables += [{(seq_num[i],): Fraction(1)} for i in points]
    return JointPrior(universe, tuple(groups + [(i,) for i in points]),
                      tuple(tables))


def extremal_pair_violations(universe: RecordUniverse, family: FamilyParams,
                             seq_num, seq_den, groups, eta) -> list:
    """membership_violations of extremal_pair_prior(universe, seq_num,
    seq_den, block=block, eta=eta), read off the layout without building
    the prior, where groups is the pair's _pair_groups(seq_num, seq_den,
    block, eta): deriving them raises PriorError wherever the prior does.

    Every block but the dependent one is a singleton, so the largest block
    is the largest group. sigma is exactly 1 for a dependent block of two
    or more (its two cells share no complement) and 0 otherwise. Each
    individual's marginal is a point mass on its agreeing record, or eta
    and 1 - eta on its two records.
    """
    count = None
    band = family.effective_band()
    if band is not None:
        alphabets = universe.alphabets

        def marginal(i):
            num, den = seq_num[i], seq_den[i]
            if num == den:
                return [1 if sym == num else 0 for sym in alphabets[i]]
            return [eta if sym == num else 1 - eta if sym == den else 0
                    for sym in alphabets[i]]

        count = len(_band_members(alphabets, band[0], marginal))
    size = max(map(len, groups))
    return membership_violations(family, size, 1 if size > 1 else 0, count)


def extremal_pair_table(universe: RecordUniverse, seq_num, seq_den, block,
                        eta):
    """(table, d): the support of extremal_pair_prior(universe, seq_num,
    seq_den, block=block, eta=eta) as one table, read off the two sequences
    without building the prior; raises as the prior does."""
    return _pair_table(seq_num, seq_den,
                       _pair_groups(seq_num, seq_den, block, eta), eta)


def _pair_table(seq_num, seq_den, groups, eta):
    """extremal_pair_table of the pair whose _pair_groups are groups.

    The prior's two-point tables are those of the m groups, each giving eta
    to its numerator cell and 1 - eta to its denominator cell; the point
    masses give 1. The table maps its 2^m support sequences, in product
    order over the groups, numerator branch first, to their masses: a
    Fraction eta = p/q gives each its integer numerator over d = q^m; a
    float eta gives the float product of its groups' masses, in group
    order, and d = None.
    """
    if isinstance(eta, Fraction):
        branch = (eta.numerator, eta.denominator - eta.numerator)
        d = eta.denominator ** len(groups)
    else:
        branch, d = (eta, 1 - eta), None
    # Each mass is its branches' product taken in group order.
    masses = [1]
    for _ in groups:
        masses = [m * b for m in masses for b in branch]
    table = {}
    for choice, m in zip(
            itertools.product((False, True), repeat=len(groups)), masses):
        seq = list(seq_num)
        for g, den in zip(groups, choice):
            if den:
                for i in g:
                    seq[i] = seq_den[i]
        table[tuple(seq)] = m
    return table, d


def extremal_pdelta_prior(
    universe: RecordUniverse,
    i: int,
    x_num: str,
    x_den: str,
    comp_shared: Sequence[str],
    comp_num: Sequence[str],
    comp_den: Sequence[str],
    exp_delta,
    *,
    eta: Prob = DEFAULT_ETA,
) -> JointPrior:
    """Worst case for bounded dependence: target record steers the complement
    onto a private branch with weight 1 - exp_delta and a shared branch with
    weight exp_delta; one block of everyone holds extremal_pdelta_table.

    Complements are tuples over the other n-1 coordinates in ascending
    coordinate order. The dependence coefficient of the result is
    1 - exp_delta when the two private complements differ, which is a family
    member exactly when exp_delta >= 1/2.
    """
    table, d = extremal_pdelta_table(universe, i, x_num, x_den, comp_shared,
                                     comp_num, comp_den,
                                     pdelta_branches(exp_delta, eta))
    if d is not None:
        table = {seq: Fraction(a, d) for seq, a in table.items()}
    return JointPrior(universe, (tuple(range(universe.n)),), (table,))


def pdelta_branches(exp_delta, eta: Prob = DEFAULT_ETA):
    """The four branch weights of the shared/private-complement construction
    in branch order (x_num with the shared, then with its private
    complement; x_den likewise), as (weights, d).

    When exp_delta = r/s and eta = p/q are both rational, the weights are
    the integer numerators p*r, p*(s-r), (q-p)*r and (q-p)*(s-r) over
    d = q*s; otherwise they are the float products and d is None. Raises
    for a bad exp_delta, then for a bad eta.
    """
    exp_delta = parse_probability(exp_delta)
    _check_eta(eta)
    if isinstance(exp_delta, Fraction) and isinstance(eta, Fraction):
        p, q = eta.numerator, eta.denominator
        r, s = exp_delta.numerator, exp_delta.denominator
        return (p * r, p * (s - r), (q - p) * r, (q - p) * (s - r)), q * s
    return (eta * exp_delta, eta * (1 - exp_delta), (1 - eta) * exp_delta,
            (1 - eta) * (1 - exp_delta)), None


def extremal_pdelta_table(universe: RecordUniverse, i, x_num, x_den,
                          comp_shared, comp_num, comp_den, branches):
    """(table, d): the one table of the shared/private-complement
    construction, where branches is pdelta_branches(exp_delta, eta).

    The table maps the four branches' sequences, in branch order, to their
    weights: a zero weight is skipped, and a branch whose sequence an
    earlier one already holds is added to it. Integer weights stay integer
    numerators over d; float weights give float sums and d None. Every
    branch's complement length and sequence are checked, in branch order.
    """
    if not (0 <= i < universe.n):
        raise PriorError(f"target {i} out of range")
    if x_num == x_den:
        raise PriorError("target records must differ")
    weights, d = branches
    table = {}
    for x, comp, w in zip((x_num, x_num, x_den, x_den),
                          (comp_shared, comp_num, comp_shared, comp_den),
                          weights):
        comp = tuple(comp)
        if len(comp) != universe.n - 1:
            raise PriorError("complement length does not match n-1")
        seq = universe.validate_sequence(comp[:i] + (x,) + comp[i:])
        if w != 0:
            old = table.get(seq)
            table[seq] = w if old is None else old + w
    return table, d


def support_cells(universe: RecordUniverse, table, d, target):
    """histogram_cells(prior, target) of the prior whose support is
    (table, d), as extremal_pair_table and extremal_pdelta_table give it:
    the table's sequences merged by (the target's records, histogram) in
    table order, each cell's mass summed from its first term, integer
    numerators over d reduced by their gcd with d, as the prior keeps them.
    """
    items = table.items()
    if d is not None:
        g = math.gcd(d, *table.values())
        if g > 1:
            items = [(seq, a // g) for seq, a in items]
            d //= g
    idx = sorted(set(target))
    weight = universe.code_weights
    cells = {}
    for seq, a in items:
        key = (tuple(seq[j] for j in idx), sum(weight[s] for s in seq))
        old = cells.get(key)
        cells[key] = a if old is None else old + a
    decode = universe.decode_histogram
    return [((rec, decode(code)), a) for (rec, code), a in cells.items()], d
