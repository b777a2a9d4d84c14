"""Finite record universes: sequences, histograms, enumeration with budgets.

A universe is an ordered list of per-individual record alphabets. A dataset is a
sequence (one record per individual); mechanisms only ever see its histogram
over the pooled alphabet of non-absent symbols. The absent record is the BOT
symbol and contributes no histogram mass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Sequence, Tuple

BOT = "⊥"

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class UniverseError(ValueError):
    """Malformed universe, sequence, or histogram."""


class EnumerationBudgetError(RuntimeError):
    """An enumeration or kernel would exceed the configured budget.

    Carries the offending cardinality (items enumerated, or steps taken by a
    histogram-domain kernel) and the stage that ran out, so callers can
    report both.
    """

    def __init__(self, cardinality, budget, stage):
        super().__init__(
            f"{stage}: enumeration of {cardinality} items exceeds budget {budget}"
        )
        self.cardinality = cardinality
        self.budget = budget
        self.stage = stage


def check_budget(cardinality, budget, stage):
    """Raise EnumerationBudgetError when cardinality exceeds the budget
    (DEFAULT_ENUMERATION_BUDGET when None)."""
    if budget is None:
        budget = DEFAULT_ENUMERATION_BUDGET
    if cardinality > budget:
        raise EnumerationBudgetError(cardinality, budget, stage)


@dataclass(frozen=True)
class RecordUniverse:
    """Per-individual record alphabets over a shared symbol pool.

    alphabets[i] lists the admissible records of individual i, in the order
    that defines table layouts everywhere else. The pooled alphabet is the
    first-appearance union of non-BOT symbols across individuals and fixes the
    coordinate order of histograms.

    The histogram-domain kernels encode a histogram as one integer whose
    digits, in base n + 1, are its counts with the first pooled symbol most
    significant. Integer order is then tuple order, and adding a record adds
    its symbol's ``code_weights`` entry (BOT weighs 0).
    """

    alphabets: Tuple[Tuple[str, ...], ...]

    def __post_init__(self):
        if not self.alphabets:
            raise UniverseError("universe needs at least one individual")
        norm = []
        for i, alpha in enumerate(self.alphabets):
            alpha = tuple(alpha)
            if not alpha:
                raise UniverseError(f"alphabet of individual {i} is empty")
            if len(set(alpha)) != len(alpha):
                raise UniverseError(f"alphabet of individual {i} repeats a symbol")
            for sym in alpha:
                if not isinstance(sym, str) or sym == "":
                    raise UniverseError(
                        f"alphabet of individual {i} has a non-string or empty symbol"
                    )
            norm.append(alpha)
        object.__setattr__(self, "alphabets", tuple(norm))
        pooled = []
        for alpha in self.alphabets:
            for sym in alpha:
                if sym != BOT and sym not in pooled:
                    pooled.append(sym)
        object.__setattr__(self, "pooled_alphabet", tuple(pooled))
        base = len(self.alphabets) + 1
        places = tuple(base**j for j in reversed(range(len(pooled))))
        object.__setattr__(self, "_places", places)
        object.__setattr__(
            self, "code_weights", {BOT: 0, **dict(zip(pooled, places))}
        )
        object.__setattr__(self, "_histogram_cache", {})
        object.__setattr__(self, "_decoded", {})

    @property
    def n(self) -> int:
        return len(self.alphabets)

    def sequence_count(self) -> int:
        return prod(len(a) for a in self.alphabets)

    def validate_sequence(self, seq: Sequence[str]) -> Tuple[str, ...]:
        seq = tuple(seq)
        if len(seq) != self.n:
            raise UniverseError(
                f"sequence length {len(seq)} does not match {self.n} individuals"
            )
        for i, sym in enumerate(seq):
            if sym not in self.alphabets[i]:
                raise UniverseError(
                    f"symbol {sym!r} is not in the alphabet of individual {i}"
                )
        return seq

    def iter_sequences(self, budget=None) -> Iterator[Tuple[str, ...]]:
        """All dataset sequences in lexicographic alphabet order."""
        check_budget(self.sequence_count(), budget, "iter_sequences")
        return itertools.product(*self.alphabets)

    def to_histogram(self, seq: Sequence[str], *, validate=True) -> Tuple[int, ...]:
        """Histogram of a sequence over the pooled alphabet (BOT drops out)."""
        if validate:
            seq = self.validate_sequence(seq)
        return self.decode_histogram(sum(self.code_weights[s] for s in seq))

    def encode_histogram(self, hist) -> int:
        return sum(c * p for c, p in zip(hist, self._places))

    def decode_histogram(self, code: int) -> Tuple[int, ...]:
        hist = self._decoded.get(code)
        if hist is None:
            counts = []
            rest = code
            for p in self._places:
                c, rest = divmod(rest, p)
                counts.append(c)
            hist = self._decoded[code] = tuple(counts)
        return hist

    def _reachable_codes(self, alphabets, budget, stage):
        """Codes of the histograms that the given individuals can produce,
        after each prefix of them: element i covers alphabets[:i]. The budget
        counts steps, one per (partial histogram, symbol)."""
        layers = [{0}]
        steps = 0
        for alpha in alphabets:
            steps += len(layers[-1]) * len(alpha)
            check_budget(steps, budget, stage)
            weights = [self.code_weights[s] for s in alpha]
            layers.append({c + w for c in layers[-1] for w in weights})
        return layers, steps

    def achievable_histograms(self, budget=None) -> Tuple[Tuple[int, ...], ...]:
        """Sorted tuple of histograms achievable by some sequence.

        Built one individual at a time; the budget counts those steps, and is
        checked against the same count when the result comes from the cache.
        """
        cache = self._histogram_cache
        if "achievable" not in cache:
            layers, steps = self._reachable_codes(
                self.alphabets, budget, "achievable_histograms"
            )
            hists = tuple(self.decode_histogram(c) for c in sorted(layers[-1]))
            cache["achievable"] = (steps, hists)
        steps, hists = cache["achievable"]
        check_budget(steps, budget, "achievable_histograms")
        return hists

    def sequences_with_histogram(self, hist, budget=None):
        """All sequences producing a given histogram, lexicographic order.

        Backtracks against the histograms each suffix of individuals can
        reach, so only realizations of hist are visited. The budget counts the
        steps that build those suffix sets, and then the realizations, which
        are counted before any is listed.
        """
        hist = tuple(hist)
        # A count outside 0..n would carry into a neighbouring digit of the
        # code and alias some other histogram.
        if len(hist) != len(self.pooled_alphabet) or not all(
            0 <= c <= self.n for c in hist
        ):
            return []
        # suffix[i]: codes reachable by individuals i..n-1.
        suffix = self._reachable_codes(
            reversed(self.alphabets), budget, "sequences_with_histogram"
        )[0][::-1]
        code = self.encode_histogram(hist)
        # ways[rest]: prefixes of the individuals so far that leave rest
        # for the suffix after them.
        ways = {code: 1} if code in suffix[0] else {}
        for alpha, reach in zip(self.alphabets, suffix[1:]):
            nxt = {}
            for rest, w in ways.items():
                for sym in alpha:
                    r = rest - self.code_weights[sym]
                    if r in reach:
                        nxt[r] = nxt.get(r, 0) + w
            ways = nxt
        count = ways.get(0, 0)
        check_budget(count, budget, "sequences_with_histogram")
        if not count:
            return []
        return list(self._realizations(code, suffix, self.alphabets))

    def _realizations(self, code, suffix, alphabets):
        """The sequences whose histogram has the reachable code, one at a
        time: depth first over alphabets[i], an ordering of individual i's
        symbols, at position i, where suffix[i] holds the codes individuals
        i..n-1 can reach. A symbol is kept when the code it leaves is in the
        next suffix set, so every kept prefix completes and no dead end is
        walked."""
        weights = self.code_weights
        # syms[i] iterates position i's symbols; rests[i] is the code left
        # for positions i..n-1 under the prefix seq[:i].
        seq, rests, syms = [], [code], [iter(alphabets[0])]
        while syms:
            i = len(seq)
            for sym in syms[i]:
                # rest - weight is a code of the next suffix only when sym's
                # count in rest is positive, so membership needs no sign test.
                nxt = rests[i] - weights[sym]
                if nxt in suffix[i + 1]:
                    break
            else:
                syms.pop()
                rests.pop()
                if seq:
                    seq.pop()
                continue
            if i + 1 == self.n:
                yield (*seq, sym)
                continue
            seq.append(sym)
            rests.append(nxt)
            syms.append(iter(alphabets[i + 1]))

    def histogram_label(self, hist) -> str:
        """Human-readable rendering, e.g. ``a=2,b=0``; counts-only when pooled
        alphabet is empty."""
        hist = tuple(hist)
        if len(hist) != len(self.pooled_alphabet):
            raise UniverseError(
                f"histogram length {len(hist)} does not match pooled alphabet"
            )
        if not hist:
            return "(empty)"
        return ",".join(f"{s}={c}" for s, c in zip(self.pooled_alphabet, hist))

    def histogram_key(self, hist) -> str:
        """Canonical machine key: comma-joined counts in pooled order."""
        hist = tuple(hist)
        if len(hist) != len(self.pooled_alphabet):
            raise UniverseError(
                f"histogram length {len(hist)} does not match pooled alphabet"
            )
        return ",".join(str(c) for c in hist)

    def parse_histogram_key(self, key: str) -> Tuple[int, ...]:
        parts = [p.strip() for p in str(key).split(",")]
        try:
            hist = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise UniverseError(f"bad histogram key {key!r}") from exc
        if len(hist) != len(self.pooled_alphabet):
            raise UniverseError(
                f"histogram key {key!r} has {len(hist)} counts, expected "
                f"{len(self.pooled_alphabet)}"
            )
        if any(c < 0 for c in hist):
            raise UniverseError(f"negative count in histogram key {key!r}")
        return hist


def l1_distance(h1, h2) -> int:
    """L1 distance between two histograms of equal length."""
    h1, h2 = tuple(h1), tuple(h2)
    if len(h1) != len(h2):
        raise UniverseError("histograms have different lengths")
    return sum(abs(a - b) for a, b in zip(h1, h2))


def uniform_universe(n: int, alphabet: Sequence[str],
                     budget: Optional[int] = None) -> RecordUniverse:
    """n individuals sharing one alphabet; n is charged against the budget
    before the per-individual alphabets are built."""
    if n < 1:
        raise UniverseError("need at least one individual")
    check_budget(n, budget, "uniform_universe")
    alpha = tuple(alphabet)
    return RecordUniverse(tuple(alpha for _ in range(n)))
