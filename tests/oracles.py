"""Sequence-domain enumerators kept as oracles for the histogram-domain
kernels. Each walks all |A|^n dataset sequences, so keep universes small."""

import itertools


def iter_sequences(universe):
    return itertools.product(*universe.alphabets)


def achievable_histograms(universe):
    return tuple(sorted({
        universe.to_histogram(seq, validate=False)
        for seq in iter_sequences(universe)
    }))


def sequences_with_histogram(universe, hist):
    return [
        seq for seq in iter_sequences(universe)
        if universe.to_histogram(seq, validate=False) == tuple(hist)
    ]


def change_histogram_pairs(universe, k):
    """Histogram pairs of every sequence and each of its edits at up to k
    positions; every pair once k >= n."""
    n = universe.n
    if k >= n:
        return list(itertools.combinations(achievable_histograms(universe), 2))
    pairs = set()
    for seq in iter_sequences(universe):
        h1 = universe.to_histogram(seq, validate=False)
        for size in range(1, k + 1):
            for positions in itertools.combinations(range(n), size):
                value_sets = [universe.alphabets[i] for i in positions]
                for replacement in itertools.product(*value_sets):
                    edited = list(seq)
                    for i, v in zip(positions, replacement):
                        edited[i] = v
                    h2 = universe.to_histogram(edited, validate=False)
                    if h2 != h1:
                        pairs.add((h1, h2) if h1 < h2 else (h2, h1))
    return sorted(pairs)
