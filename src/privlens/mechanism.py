"""Discrete mechanisms as histogram-indexed channels, plus the ratio scans
that characterize their worst-case behavior.

A channel maps each achievable dataset histogram to a distribution over a
finite outcome set. Keying rows by histogram makes permutation invariance
structural rather than something to check. Neighborhood for every ratio scan
is the record-change metric: two histograms are within distance k when some
sequence realizing the first can be turned into one realizing the second by
editing at most k coordinates (replacements count once).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .probability import (
    TOL,
    Prob,
    left_sum,
    log_ratio,
    parse_probability,
    ratio_div,
    scale_to_integers,
)
from .universe import (
    BOT,
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    RecordUniverse,
    channel_build_budget,
    check_budget,
)


class ChannelError(ValueError):
    """Malformed channel: bad rows, bad outcomes, bad normalization."""


class _Built(dict):
    """A dict that builds a missing key's value with build(key) and keeps
    it; a present key is a plain dict lookup."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class FractionRows(Mapping):
    """Read-only {histogram: row of Fractions} over integer rows
    {histogram: (numerators, d)}, in their order. A row's Fractions are
    built on its first read and kept, and equal numerators over one d (a
    symmetric kernel repeats its entries across rows) share one Fraction.
    It compares equal to, and prints as, the dict of its rows."""

    def __init__(self, dense):
        self._dense = dense
        self._rows = _Built(self._build_row)
        self._memo = {}

    def _build_row(self, h):
        nums, d = self._dense[h]
        memo = self._memo
        out = []
        for a in nums:
            f = memo.get((a, d))
            if f is None:
                f = memo[a, d] = Fraction(a, d)
            out.append(f)
        return tuple(out)

    def __getitem__(self, h):
        return self._rows[h]

    def __iter__(self):
        return iter(self._dense)

    def __len__(self):
        return len(self._dense)

    def __contains__(self, h):
        return h in self._dense

    def __repr__(self):
        return repr(dict(self.items()))


def _nonzero_views(row):
    given = [(j, q) for j, q in enumerate(row) if q != 0]
    return given, [(j, float(q)) for j, q in given]


class RowViews:
    """Rows as the joint-table loop reads them, each view built on first
    use and kept: nonzero[key] is a row's nonzero (outcome index, entry)
    pairs with the entries as given and as floats, indexed by as_float;
    integer(key), for a row of rationals, its nonzero (outcome index,
    numerator) pairs over a common denominator of its entries. row_of maps
    a row key to a row; dense_of, when given, maps it to the row's
    (numerators, d), already computed."""

    def __init__(self, row_of, dense_of=None):
        self._dense_of = dense_of or (lambda key: scale_to_integers(row_of(key)))
        # The builder closes over row_of, not self, so a channel and its
        # views form no reference cycle and are freed without the collector.
        self.nonzero = _Built(lambda key: _nonzero_views(row_of(key)))
        self._integer = {}

    def integer(self, key):
        """(d, [(outcome index, entry * d)]) without zero entries, or None
        when the row holds a float."""
        if key not in self._integer:
            scaled = self._dense_of(key)
            if scaled is not None:
                nums, d = scaled
                scaled = d, [(j, b) for j, b in enumerate(nums) if b]
            self._integer[key] = scaled
        return self._integer[key]


@dataclass(frozen=True, eq=False)
class Channel:
    """Finite channel from achievable histograms to outcomes.

    rows maps every achievable histogram to a probability tuple aligned with
    ``outcomes``. Construction validates coverage, alignment, nonnegativity,
    and row normalization within 1e-9, and keeps each row of ints and
    Fractions as its integer numerators over the lcm of its denominators,
    which the ratio scans and joint tables read. from_numerators builds a
    channel from rows that are integer numerators already; its rows are a
    FractionRows, which builds a row's Fractions when the row is first read.
    The achievable histograms that coverage is checked against are listed
    against channel_build_budget(budget); budget is not kept.
    """

    universe: RecordUniverse
    outcomes: Tuple
    rows: Mapping[Tuple[int, ...], Tuple[Prob, ...]]
    budget: InitVar[Optional[int]] = None

    def __post_init__(self, budget):
        # (numerators, d) per histogram; None for a row that holds a float.
        dense = {h: scale_to_integers(row) for h, row in self.rows.items()}
        self._check(dense, budget)
        self._keep(dense)

    @classmethod
    def from_numerators(cls, universe: RecordUniverse, outcomes,
                        dense, budget: Optional[int] = None) -> "Channel":
        """The channel whose row at h is numerators / d for each (h,
        (numerators, d)) in dense, with int numerators and a positive int
        d. The checks and messages are the constructor's, made on the
        integers. dense is kept as the channel's integer rows, so no row is
        scaled again, and rows reads it as Fractions (FractionRows)."""
        ch = cls.__new__(cls)
        object.__setattr__(ch, "universe", universe)
        object.__setattr__(ch, "outcomes", tuple(outcomes))
        ch._check(dense, budget)
        object.__setattr__(ch, "rows", FractionRows(dense))
        ch._keep(dense)
        return ch

    def _check(self, dense, budget=None):
        """Validate the channel whose rows have the integer form dense:
        histogram -> (numerators, d), or None for a row with a float, which
        is read from self.rows. A message names the first offending row in
        dense's order. The achievable histograms are listed against
        channel_build_budget(budget)."""
        if not self.outcomes:
            raise ChannelError("channel needs at least one outcome")
        try:
            distinct = len(set(self.outcomes))
        except TypeError:
            raise ChannelError("outcome labels must be hashable, not lists "
                               "or objects") from None
        if distinct != len(self.outcomes):
            raise ChannelError("outcome labels repeat")
        achievable = set(self.universe.achievable_histograms(
            channel_build_budget(budget)))
        keys = set(dense)
        missing = achievable - keys
        if missing:
            raise ChannelError(
                f"no row for achievable histogram {sorted(missing)[0]}"
            )
        extra = keys - achievable
        if extra:
            raise ChannelError(
                f"row for unachievable histogram {sorted(extra)[0]}"
            )
        for h, scaled in dense.items():
            entries = self.rows[h] if scaled is None else scaled[0]
            if len(entries) != len(self.outcomes):
                raise ChannelError(
                    f"row {h} has {len(entries)} entries for {len(self.outcomes)} outcomes"
                )
            if scaled is None:
                total = left_sum(entries)
            else:
                d = scaled[1]
                if type(d) is not int or d <= 0:
                    raise ChannelError(
                        f"row {h} has denominator {d!r}, expected a "
                        "positive integer"
                    )
                # int / int is the correctly rounded float of the exact sum,
                # the same float as float(Fraction(sum, d)).
                total = sum(entries) / d
            # Negated tests, so that NaN fails them.
            if not all(p >= 0 for p in entries):
                raise ChannelError(f"negative probability in row {h}")
            if not abs(float(total) - 1.0) <= TOL:
                raise ChannelError(
                    f"row {h} sums to {float(total)!r}, expected 1"
                )

    def _keep(self, dense):
        """Keep dense as the integer rows that the scans and views read."""
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(
            self, "_row_views", RowViews(self.rows.__getitem__, dense.__getitem__)
        )

    def row(self, hist) -> Tuple[Prob, ...]:
        hist = tuple(hist)
        try:
            return self.rows[hist]
        except KeyError:
            raise ChannelError(f"no row for histogram {hist}") from None

    def outcome_index(self, label) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise ChannelError(f"unknown outcome {label!r}") from None

    def describe(self) -> dict:
        return {
            "outcome_count": len(self.outcomes),
            "row_count": len(self.rows),
        }


def matrix_channel(universe: RecordUniverse, outcomes, raw_rows,
                   budget: Optional[int] = None) -> Channel:
    """Channel from explicit rows; raw_rows maps histogram tuples (or
    canonical count-key strings) to probability lists. budget is the
    Channel's."""
    rows = {}
    for key, row in raw_rows.items():
        if isinstance(key, str):
            hist = universe.parse_histogram_key(key)
        else:
            hist = tuple(key)
        rows[hist] = tuple(parse_probability(p) for p in row)
    return Channel(universe, tuple(outcomes), rows, budget)


# ---------------------------------------------------------------------------
# Built-in mechanisms
# ---------------------------------------------------------------------------


def geometric_counting_channel(
    universe: RecordUniverse,
    target_symbol: str,
    *,
    ratio=None,
    epsilon: Optional[float] = None,
    max_count: Optional[int] = None,
    budget: Optional[int] = None,
) -> Channel:
    r"""Truncated symmetric geometric noise on a counting query.

    The query counts individuals whose record equals ``target_symbol``. With
    noise parameter alpha = exp(-epsilon), interior outcomes j get mass
    (1 - alpha)/(1 + alpha) * alpha^|j - c| and the folded boundary outcomes
    absorb their tails: alpha^c / (1 + alpha) at 0 and alpha^(m - c) / (1 + alpha)
    at m. Rows are exactly epsilon-differentially private and rational when
    alpha is given as a rational ``ratio``. A max_count beyond the largest
    achievable count is charged against the budget; the achievable
    histograms are listed against channel_build_budget(budget).
    """
    if (ratio is None) == (epsilon is None):
        raise ChannelError("give exactly one of ratio or epsilon")
    if ratio is not None:
        alpha = parse_probability(ratio, allow_unit_excess=True)
        if not (0 < alpha < 1):
            raise ChannelError("ratio must be strictly between 0 and 1")
    else:
        if not epsilon > 0:
            raise ChannelError("epsilon must be positive")
        alpha = math.exp(-epsilon)
    if target_symbol not in universe.pooled_alphabet:
        raise ChannelError(
            f"target symbol {target_symbol!r} not in the pooled alphabet"
        )
    t_idx = universe.pooled_alphabet.index(target_symbol)
    hists = universe.achievable_histograms(channel_build_budget(budget))
    cap = max(h[t_idx] for h in hists)
    m = cap if max_count is None else max_count
    if m < cap:
        raise ChannelError(
            f"max_count {m} is below the largest achievable count {cap}"
        )

    # A row depends on the count alone: one row per count, shared.
    counts = {h[t_idx] for h in hists}
    # Rows up to the largest achievable count grow with the universe alone.
    # A max_count beyond it adds m - cap entries to each row, and a rational
    # entry is an integer of about m digits; that excess is charged.
    digits = 1 if isinstance(alpha, float) else m + 1
    check_budget(len(counts) * (m - cap) * digits, budget,
                 "geometric_counting_channel")
    outcomes = tuple(range(m + 1))
    if isinstance(alpha, float):
        by_count = {c: _geometric_float_row(alpha, m, c) for c in counts}
        return Channel(universe, outcomes,
                       {h: by_count[h[t_idx]] for h in hists}, budget)
    # alpha = p/q: every entry is an integer over q**m * (q + p), the
    # masses above times q**m * (q + p).
    p, q = alpha.numerator, alpha.denominator
    p_pow = [1]
    q_pow = [1]
    for _ in range(m + 1):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    d = q_pow[m] * (q + p)
    inner = [(q - p) * p_pow[e] * q_pow[m - e] for e in range(m)]

    def numerators(c):
        return (p_pow[c] * q_pow[m - c + 1],
                *(inner[abs(j - c)] for j in range(1, m)),
                p_pow[m - c] * q_pow[c + 1])

    by_count = {c: (numerators(c), d) for c in counts}
    return Channel.from_numerators(universe, outcomes,
                                   {h: by_count[h[t_idx]] for h in hists},
                                   budget)


def _geometric_float_row(alpha, m, c):
    """The row of count c of geometric_counting_channel at a float alpha."""
    out = []
    for j in range(m + 1):
        if j == 0:
            out.append(alpha**c / (1 + alpha))
        elif j == m:
            out.append(alpha ** (m - c) / (1 + alpha))
        else:
            out.append((1 - alpha) / (1 + alpha) * alpha ** abs(j - c))
    return tuple(out)


def randomized_response_channel(universe: RecordUniverse, keep_prob,
                                budget: Optional[int] = None) -> Channel:
    """Per-record randomized response, reported as an output histogram.

    Each record is kept with probability ``keep_prob`` and otherwise resampled
    uniformly from the shared alphabet (the kept value included, so the
    diagonal is keep + (1 - keep)/m). The outcome is the histogram of the
    perturbed sequence; by symmetry the row depends only on the input
    histogram. A rational ``keep_prob`` runs one integer state DP per class
    of input count vectors sorted in descending order and reads each row
    through its sorting permutation; a float one runs the DP per histogram.
    The achievable histograms are listed against
    channel_build_budget(budget).
    """
    alpha0 = universe.alphabets[0]
    for a in universe.alphabets:
        if a != alpha0:
            raise ChannelError(
                "randomized response needs one shared alphabet for everyone"
            )
    keep = parse_probability(keep_prob)
    m = len(alpha0)
    base = (1 - keep) / m
    n = universe.n
    achievable = universe.achievable_histograms(channel_build_budget(budget))
    outcomes = tuple(universe.histogram_key(h) for h in achievable)
    # Full count vectors over alpha0, BOT included, in alpha0 order.
    where = [universe.pooled_alphabet.index(v) if v != BOT else None
             for v in alpha0]
    full = [
        [n - sum(h) if j is None else h[j] for j in where] for h in achievable
    ]
    scaled = scale_to_integers((keep + base, base))
    if scaled is None:
        # Float kernel: one DP per histogram on its non-decreasing
        # realization, keyed by output histogram code, in this summation
        # order, so float rows keep their bits.
        diag, off = keep + base, base
        weights = [universe.code_weights[v] for v in alpha0]
        kernel = _rr_kernel(weights, diag, off)
        out_codes = [universe.encode_histogram(h) for h in achievable]
        rows = {}
        for h, f in zip(achievable, full):
            states = _rr_states(f, kernel)
            rows[h] = tuple(states.get(c, Fraction(0)) for c in out_codes)
        return Channel(universe, outcomes, rows, budget)

    # Rational kernel: it runs on integers over its common denominator, so
    # each state sums ints and each row is integer numerators over
    # scale**n, handed to the channel as they are. It is diag on the kept
    # symbol and off elsewhere, so relabelling the symbols permutes the
    # output columns alike and a row depends on its input's count vector
    # up to order. One DP per class of count vectors sorted in descending
    # order, keyed by the class positions' output counts in base n + 1; a
    # histogram reads its row through the permutation that sorts it.
    (diag, off), scale = scaled
    places = [(n + 1) ** (m - 1 - i) for i in range(m)]
    kernel = _rr_kernel(places, diag, off)
    denom = scale**n
    by_class = {}
    by_order = {}
    rows = {}
    for h, f in zip(achievable, full):
        order = tuple(sorted(range(m), key=f.__getitem__, reverse=True))
        cls = tuple(f[j] for j in order)
        states = by_class.get(cls)
        if states is None:
            states = by_class[cls] = _rr_states(cls, kernel)
        cols = by_order.get(order)
        if cols is None:
            cols = by_order[order] = [
                sum(g[j] * p for j, p in zip(order, places)) for g in full
            ]
        rows[h] = [states.get(c, 0) for c in cols], denom
    return Channel.from_numerators(universe, outcomes, rows, budget)


def _rr_kernel(weights, diag, off):
    """Randomized-response kernel rows for _rr_states: row v lists (weight
    of w, probability of v -> w) over the outputs w, diag at w == v and off
    elsewhere; zero entries are left out, so a cell that no path reaches
    stays missing."""
    kernel = []
    for v in range(len(weights)):
        row = [(w, diag if u == v else off) for u, w in enumerate(weights)]
        kernel.append([(w, q) for w, q in row if q != 0])
    return kernel


def _rr_states(counts, kernel):
    """Output distribution under the kernel of the input with counts[v]
    records v: {sum of the output weights: probability}, built one record
    at a time over partial outputs, the records in non-decreasing v."""
    states: Dict[int, Prob] = {0: 1}
    for v, c in enumerate(counts):
        row = kernel[v]
        for _ in range(c):
            nxt: Dict[int, Prob] = {}
            get = nxt.get
            for partial, p in states.items():
                for w, q in row:
                    key = partial + w
                    nxt[key] = get(key, 0) + p * q
            states = nxt
    return states


# ---------------------------------------------------------------------------
# Change-metric neighborhoods
# ---------------------------------------------------------------------------


def change_histogram_pairs(
    universe: RecordUniverse, k: int, budget: Optional[int] = None
):
    """Unordered pairs of distinct achievable histograms reachable from each
    other by editing at most k records of some realizing sequence.

    For k >= n this is every pair, and the budget counts them. Otherwise
    one pass over the individuals carries every pair of partial histograms
    (h1, h2) with the fewest record changes that reach it, dropping pairs
    that need more than k; a pair that has used all k changes only copies
    the next record. The budget counts one step per (state, record pair),
    an upper bound on the moves taken. Returned sorted for deterministic
    scans.
    """
    if k < 1:
        raise ChannelError("k must be at least 1")
    if k >= universe.n:
        # achievable_histograms is sorted, so its combinations are too.
        hists = universe.achievable_histograms(budget)
        check_budget(len(hists) * (len(hists) - 1) // 2, budget,
                     "change_histogram_pairs")
        return list(itertools.combinations(hists, 2))
    states = {(0, 0): 0}
    steps = 0
    far = k + 1
    for alpha in universe.alphabets:
        weights = [universe.code_weights[s] for s in alpha]
        steps += len(states) * len(weights) ** 2
        check_budget(steps, budget, "change_histogram_pairs")
        changes = [(x, y) for x in weights for y in weights if x != y]
        nxt = {}
        get = nxt.get
        for (c1, c2), d in states.items():
            for x in weights:
                key = (c1 + x, c2 + x)
                if d < get(key, far):
                    nxt[key] = d
            if d < k:
                e = d + 1
                for x, y in changes:
                    key = (c1 + x, c2 + y)
                    if e < get(key, far):
                        nxt[key] = e
        states = nxt
    decode = universe.decode_histogram
    return [(decode(c1), decode(c2)) for c1, c2 in sorted(states) if c1 < c2]


def change_sequence_pairs(
    universe: RecordUniverse, k: int, budget: Optional[int] = None
):
    """Ordered pairs of distinct sequences differing in at most k coordinates,
    deduplicated and sorted: the sequence-level reference for
    change_histogram_pairs and for the pair candidates and tightness
    witness of audit, which find their pairs without listing these."""
    if k < 1:
        raise ChannelError("k must be at least 1")
    n = universe.n
    if budget is None:
        budget = DEFAULT_ENUMERATION_BUDGET
    pairs = set()
    work = 0
    for seq in universe.iter_sequences(budget):
        for positions in _position_subsets(n, min(k, n)):
            value_sets = [universe.alphabets[i] for i in positions]
            for replacement in itertools.product(*value_sets):
                work += 1
                if work > budget:
                    raise EnumerationBudgetError(
                        work, budget, "change_sequence_pairs"
                    )
                if all(seq[i] == v for i, v in zip(positions, replacement)):
                    continue
                edited = list(seq)
                for i, v in zip(positions, replacement):
                    edited[i] = v
                edited = tuple(edited)
                pairs.add((seq, edited))
                pairs.add((edited, seq))
    return sorted(pairs)


def _position_subsets(n: int, k: int):
    for size in range(1, k + 1):
        yield from itertools.combinations(range(n), size)


@dataclass(frozen=True)
class RatioScan:
    """Result of a worst-case row-ratio scan.

    ratio is on the likelihood-ratio scale (Fraction when the channel is
    rational, math.inf on a hard distinguishing event); nats = log(ratio).
    The witness is the maximizing (numerator histogram, denominator
    histogram, outcome label), None when the scan is vacuous.
    """

    ratio: Prob
    num_hist: Optional[Tuple[int, ...]] = None
    den_hist: Optional[Tuple[int, ...]] = None
    outcome: Optional[object] = None
    note: str = ""

    @property
    def nats(self) -> float:
        return log_ratio(self.ratio)

    def witness(self) -> Optional[dict]:
        if self.num_hist is None:
            return None
        return {
            "numerator_histogram": list(self.num_hist),
            "denominator_histogram": list(self.den_hist),
            "outcome": self.outcome,
        }


def _scan_pairs(channel: Channel, pairs) -> RatioScan:
    """Largest row ratio over the pairs, both directions. Cells are read by
    pair, then outcome index, h1/h2 before h2/h1, and the first maximum is
    kept; positive over zero is inf and zero over zero is skipped."""
    if None not in channel._dense.values():
        wit = _scan_integer(channel, pairs)
        if wit is None:
            best = None
        else:
            num_h, den_h, j = wit
            best = ratio_div(channel.rows[num_h][j], channel.rows[den_h][j])
            wit = num_h, den_h, channel.outcomes[j]
    else:
        best, wit = _scan_generic(channel, pairs)
    if best is None:
        return RatioScan(
            ratio=Fraction(1),
            note="no comparable pairs; condition is vacuous",
        )
    return RatioScan(
        ratio=best,
        num_hist=wit[0],
        den_hist=wit[1],
        outcome=wit[2],
    )


def _scan_integer(channel: Channel, pairs):
    """(numerator histogram, denominator histogram, outcome index) of the
    first maximal cell on a channel of rational rows, None when no cell is
    comparable. Rows are integer numerators over their own d, so
    (a/d1)/(b/d2) is a*d2 over b*d1, or a over b when d1 == d2, and each
    comparison against the best so far, bn/bd, cross-multiplies; no
    Fraction is built."""
    dense = channel._dense
    # -1/1 sits below every ratio, so the first comparable cell wins.
    bn, bd = -1, 1
    wit = None
    for h1, h2 in pairs:
        nums1, d1 = dense[h1]
        nums2, d2 = dense[h2]
        if d1 != d2:
            nums1 = [a * d2 for a in nums1]
            nums2 = [b * d1 for b in nums2]
        for j, (x, y) in enumerate(zip(nums1, nums2)):
            if y:
                if x * bd > bn * y:
                    bn, bd, wit = x, y, (h1, h2, j)
            elif x:
                # Nothing exceeds inf, so the first one is the maximum.
                return h1, h2, j
            if x:
                if y * bd > bn * x:
                    bn, bd, wit = y, x, (h2, h1, j)
            elif y:
                return h2, h1, j
    return wit


def _scan_generic(channel: Channel, pairs):
    """(best ratio, witness) by ratio_div on the rows as given, for channels
    with a float entry."""
    best = None
    wit = None
    for h1, h2 in pairs:
        row1 = channel.rows[h1]
        row2 = channel.rows[h2]
        for j, label in enumerate(channel.outcomes):
            for num_h, den_h, num, den in (
                (h1, h2, row1[j], row2[j]),
                (h2, h1, row2[j], row1[j]),
            ):
                r = ratio_div(num, den)
                if r is None:
                    continue
                if best is None or r > best:
                    best = r
                    wit = (num_h, den_h, label)
    return best, wit


def lipschitz_ratio(
    channel: Channel, k: int, budget: Optional[int] = None
) -> RatioScan:
    """Largest row likelihood ratio between histograms within k record
    changes. k >= n reproduces the unrestricted all-pairs ratio."""
    pairs = change_histogram_pairs(channel.universe, k, budget)
    return _scan_pairs(channel, pairs)


def dp_epsilon(channel: Channel, budget: Optional[int] = None) -> RatioScan:
    """Exact differential privacy level: log of the largest one-change row
    ratio. The ratio field carries the exact likelihood-ratio value."""
    return lipschitz_ratio(channel, 1, budget)


def postprocess(channel: Channel, outcome_map) -> Channel:
    """Apply a deterministic outcome-merging map; the image ordering follows
    first appearance along the original outcome tuple."""
    merged_order = []
    for label in channel.outcomes:
        if label not in outcome_map:
            raise ChannelError(f"outcome map misses outcome {label!r}")
        img = outcome_map[label]
        if img not in merged_order:
            merged_order.append(img)
    index = {img: j for j, img in enumerate(merged_order)}
    rows = {}
    for h, row in channel.rows.items():
        acc = [Fraction(0)] * len(merged_order)
        for label, p in zip(channel.outcomes, row):
            j = index[outcome_map[label]]
            acc[j] = acc[j] + p
        rows[h] = tuple(acc)
    return Channel(channel.universe, tuple(merged_order), rows)
