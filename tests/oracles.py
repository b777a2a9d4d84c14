"""Reference loops kept as oracles for the fast kernels: sequence-domain
enumerators that walk dataset sequences (all |A|^n of them or a prior's
whole support), the neighbour-pair DP that steps once per individual
where the library steps once per alphabet group, the per-sequence
dependence and averaging scans, and the
per-cell and per-candidate loops that the integer scans and the symmetry
classes replace, the worst-case search's member walks that the class
generator replaces, the shared/private-complement prior built branch by
branch, each weight its own product of eta and exp_delta, the sampler that
builds and checks a prior per draw, the draw that sets itself up per call
and reads sigma through dicts, the leakage quantities and the prior
table check on
Fractions where the library reads integer numerators, the dict-update
convolution that the compiled histogram plan and the integer prior masses
replace, the product-channel loop on Fractions that integer rows replace,
and sums started from an int 0 where the library starts them from
their first term. Keep universes small."""

import functools
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from math import prod
from types import SimpleNamespace

from privlens import (
    BOT,
    DEFAULT_ETA,
    JointPrior,
    PriorError,
    Quantity,
    Verdict,
    RatioScan,
    SupResult,
    TOL,
    change_sequence_pairs,
    check_membership,
    extremal_pair_prior,
    log_ratio,
    max_mi,
    normalize_target,
    parse_probability,
    ratio_div,
)
from privlens.prior import membership_violations
from privlens.probability import exp_or_inf, left_sum
from privlens.universe import check_budget
from privlens.audit import (
    _band_corners,
    _pair_description,
    _pdelta_description,
    _parse_bound,
    _uniform_marginal,
    leq_with_tol,
)


def iter_sequences(universe):
    return itertools.product(*universe.alphabets)


def histogram(universe, seq):
    """Count of each pooled symbol in seq (BOT is not pooled)."""
    return tuple(seq.count(s) for s in universe.pooled_alphabet)


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


def per_individual_pairs(universe, k):
    """change_histogram_pairs at k < n by one DP step per individual: every
    pair of partial histogram codes with the fewest record changes that
    reach it, a pair that has used all k changes only copying the next
    record."""
    states = {(0, 0): 0}
    far = k + 1
    for alpha in universe.alphabets:
        weights = [universe.code_weights[s] for s in alpha]
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


# ---------------------------------------------------------------------------
# Joint tables, one cell per support sequence
# ---------------------------------------------------------------------------


def tables_from_cells(cells, outcomes):
    """The joint-table build over (records key, mass, row) cells: every mass
    times its whole row, in cell order, each records key's joint row None
    where no term arrives. Has the attributes the leakage quantities
    read."""
    n_out = len(outcomes)
    p_x, rows, p_r = {}, {}, [Fraction(0)] * n_out
    for xv, p, row in cells:
        p_x[xv] = p_x.get(xv, 0) + p
        joint = rows.setdefault(xv, [None] * n_out)
        for j in range(n_out):
            q = row[j]
            if q == 0:
                continue
            w = p * q
            joint[j] = w if joint[j] is None else joint[j] + w
            p_r[j] = p_r[j] + w
    keys = sorted(p_x)
    return SimpleNamespace(
        outcomes=tuple(outcomes),
        p_x={k: p_x[k] for k in keys},
        p_r=p_r,
        rows={k: rows[k] for k in keys},
        integers=None,
    )


def histogram_masses(prior, target=()):
    """histogram_masses as one pass of dict updates per block: each block's
    positive cells summed by (target records part, histogram code), then
    convolved into the states one (state, cell) pair at a time."""
    u = prior.universe
    weight = u.code_weights.__getitem__
    tgt = set(target)
    contributed = []
    states = None
    for b, table in zip(prior.blocks, prior.tables):
        pos = [j for j, i in enumerate(b) if i in tgt]
        contributed.extend(b[j] for j in pos)
        local = {}
        for key, p in table.items():
            if p > 0:
                cell = (tuple(map(key.__getitem__, pos)), sum(map(weight, key)))
                old = local.get(cell)
                local[cell] = p if old is None else old + p
        if states is None:
            states = {cell: Fraction(m) if isinstance(m, int) else m
                      for cell, m in local.items()}
            continue
        nxt = {}
        for (key0, code0), m0 in states.items():
            for (key1, code1), m1 in local.items():
                cell = (key0 + key1, code0 + code1)
                m = m0 * m1
                old = nxt.get(cell)
                nxt[cell] = m if old is None else old + m
        states = nxt
    order = sorted(range(len(contributed)), key=contributed.__getitem__)
    return {
        (tuple(map(key.__getitem__, order)), u.decode_histogram(code)): m
        for (key, code), m in states.items()
    }


def _sequence_cells(prior, target, row_of):
    u = prior.universe
    tgt = tuple(sorted(set(target)))
    return [
        (tuple(seq[i] for i in tgt), p,
         row_of(u.to_histogram(seq, validate=False)))
        for seq, p in prior.iter_support()
    ]


def _fold_rows(rows):
    out = rows[0]
    for row in rows[1:]:
        out = [a * b for a in out for b in row]
    return out


def joint_tables(prior, channel, target):
    return tables_from_cells(
        _sequence_cells(prior, target, channel.rows.__getitem__),
        channel.outcomes,
    )


def dataset_distribution(prior):
    out = {}
    for seq, p in prior.iter_support():
        h = prior.universe.to_histogram(seq, validate=False)
        out[h] = out.get(h, 0) + p
    return out


def direct_epoch_max_mi(epochs, target):
    """max_mi over the product of the epochs' support sequences, witness as
    (records by epoch, outcomes by epoch)."""
    per_epoch = [
        _sequence_cells(p, target, c.rows.__getitem__) for p, c in epochs
    ]
    cells = []
    for combo in itertools.product(*per_epoch):
        keys, masses, rows = zip(*combo)
        cells.append((keys, prod(masses, start=Fraction(1)), _fold_rows(rows)))
    outcomes = tuple(itertools.product(*(c.outcomes for _, c in epochs)))
    q = max_mi(None, None, None, tables=tables_from_cells(cells, outcomes))
    return replace(q, witness={
        "records_by_epoch": [list(x) for x in q.witness["records"]],
        "outcomes_by_epoch": list(q.witness["outcome"]),
    })


def equal_epoch_direct(prior, channels, target):
    """max_mi of one prior seen through several channels, rows folded per
    support sequence."""
    cells = _sequence_cells(
        prior, target, lambda h: _fold_rows([c.rows[h] for c in channels])
    )
    outcomes = tuple(itertools.product(*(c.outcomes for c in channels)))
    return max_mi(None, None, None, tables=tables_from_cells(cells, outcomes))


# ---------------------------------------------------------------------------
# Geometric counting rows, one Fraction (or float) operation per term
# ---------------------------------------------------------------------------


def geometric_counting_rows(universe, target_symbol, ratio, max_count=None):
    """{histogram: row} of geometric_counting_channel by its mass formulas
    on the parsed ratio alpha as is: alpha**c / (1 + alpha) at outcome 0,
    alpha**(m - c) / (1 + alpha) at m, and (1 - alpha) / (1 + alpha) *
    alpha**|j - c| in between, for the count c of target_symbol."""
    alpha = parse_probability(ratio, allow_unit_excess=True)
    t = universe.pooled_alphabet.index(target_symbol)
    hists = universe.achievable_histograms()
    m = max(h[t] for h in hists) if max_count is None else max_count
    rows = {}
    for h in hists:
        c = h[t]
        row = []
        for j in range(m + 1):
            if j == 0:
                row.append(alpha**c / (1 + alpha))
            elif j == m:
                row.append(alpha ** (m - c) / (1 + alpha))
            else:
                row.append((1 - alpha) / (1 + alpha) * alpha ** abs(j - c))
        rows[h] = tuple(row)
    return rows


# ---------------------------------------------------------------------------
# Randomized response, one Fraction (or float) operation per term
# ---------------------------------------------------------------------------


def randomized_response_rows(universe, keep_prob):
    """{histogram: row} of randomized_response_channel by its state DP over
    partial output histograms, on the parsed keep probability as is."""
    alpha0 = universe.alphabets[0]
    keep = parse_probability(keep_prob)
    base = (1 - keep) / len(alpha0)
    kernel = {v: {w: (keep + base if w == v else base) for w in alpha0}
              for v in alpha0}
    achievable = universe.achievable_histograms()
    pooled_index = {s: j for j, s in enumerate(universe.pooled_alphabet)}
    zero = tuple(0 for _ in universe.pooled_alphabet)
    rows = {}
    for h in achievable:
        counts = dict(zip(universe.pooled_alphabet, h))
        counts[BOT] = universe.n - sum(h)
        rep = [v for v in alpha0 for _ in range(counts[v])]
        states = {zero: Fraction(1)}
        for v in rep:
            nxt = {}
            for partial, p in states.items():
                for w, q in kernel[v].items():
                    if q == 0:
                        continue
                    if w == BOT:
                        key = partial
                    else:
                        lst = list(partial)
                        lst[pooled_index[w]] += 1
                        key = tuple(lst)
                    nxt[key] = nxt.get(key, 0) + p * q
            states = nxt
        rows[h] = tuple(states.get(out_h, Fraction(0)) for out_h in achievable)
    return rows


def product_channel_rows(channels):
    """{histogram: row} of product_channel, each entry the product of the
    component entries from Fraction(1), one Fraction (or float) operation
    per factor, in itertools.product order over the component outcomes."""
    rows = {}
    for h in channels[0].universe.achievable_histograms():
        comp_rows = [c.rows[h] for c in channels]
        row = []
        for combo in itertools.product(
                *(range(len(c.outcomes)) for c in channels)):
            p = Fraction(1)
            for r, j in zip(comp_rows, combo):
                p = p * r[j]
            row.append(p)
        rows[h] = tuple(row)
    return rows


# ---------------------------------------------------------------------------
# Ratio scans, one ratio_div per cell
# ---------------------------------------------------------------------------


def ratio_scan(channel, pairs):
    """RatioScan of the largest row ratio over the pairs by ratio_div on the
    rows as given: pair order, then outcome index, h1/h2 before h2/h1, the
    first maximum kept."""
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


def lipschitz_ratio(channel, k):
    return ratio_scan(channel, change_histogram_pairs(channel.universe, k))


# ---------------------------------------------------------------------------
# max_mi, one Fraction (or float) ratio per cell
# ---------------------------------------------------------------------------


def max_mi_scan(t):
    """max_mi of tables t by (w / p_x) / p_r on the entries as stored:
    sorted records key, then outcome index, the first maximum kept, zero
    cells skipped."""
    best = None
    wit = None
    for xv, px in t.p_x.items():
        if px == 0:
            continue
        for j, label in enumerate(t.outcomes):
            pr = t.p_r[j]
            if pr == 0:
                continue
            w = t.rows[xv][j]
            if w is None or w == 0:
                continue
            r = (w / px) / pr
            if best is None or r > best:
                best = r
                wit = (xv, label)
    if best is None:
        return Quantity(nats=0.0, ratio=Fraction(1),
                        notes=("no positive joint cells",))
    return Quantity(nats=log_ratio(best), ratio=best,
                    witness={"records": list(wit[0]), "outcome": wit[1]})


# ---------------------------------------------------------------------------
# The other leakage quantities on the Fraction (or float) views
# ---------------------------------------------------------------------------


def mi_scan(t):
    """mi of tables t by float() of the entries as stored, summed by sorted
    records key, then outcome index."""
    total = 0.0
    for xv, px in t.p_x.items():
        for j, pr in enumerate(t.p_r):
            w = t.rows[xv][j]
            if w is None or w == 0:
                continue
            total += float(w) * math.log(float(w) / (float(px) * float(pr)))
    total = max(total, 0.0)
    return Quantity(nats=total)


def max_rel_entropy_scan(t):
    """max_rel_entropy of tables t by float() of the entries as stored, the
    first maximum kept."""
    best = None
    wit = None
    for j, label in enumerate(t.outcomes):
        pr = t.p_r[j]
        if pr == 0:
            continue
        acc = 0.0
        for xv, px in t.p_x.items():
            w = t.rows[xv][j]
            if w is None or w == 0:
                continue
            post = float(w) / float(pr)
            acc += post * math.log(post / float(px))
        acc = max(acc, 0.0)
        if best is None or acc > best:
            best = acc
            wit = label
    if best is None:
        return Quantity(nats=0.0, notes=("no positive outcomes",))
    return Quantity(nats=best, witness={"outcome": wit})


def inferential_eps_scan(t):
    """inferential_eps of tables t by one ratio_div of the two likelihoods
    per (record pair, outcome) cell, the first maximum kept."""
    support = [xv for xv, px in t.p_x.items() if px > 0]
    if len(support) < 2:
        return Quantity(
            nats=0.0, ratio=Fraction(1),
            notes=("only one admissible assignment; condition is vacuous",),
        )
    best = None
    wit = None
    for a in support:
        pa = t.p_x[a]
        for b in support:
            if a == b:
                continue
            pb = t.p_x[b]
            for j, label in enumerate(t.outcomes):
                wa, wb = t.rows[a][j], t.rows[b][j]
                la = (0 if wa is None else wa) / pa
                lb = (0 if wb is None else wb) / pb
                r = ratio_div(la, lb)
                if r is None:
                    continue
                if best is None or r > best:
                    best = r
                    wit = (a, b, label)
    if best is None:
        return Quantity(nats=0.0, ratio=Fraction(1),
                        notes=("all likelihood pairs are excluded",))
    return Quantity(nats=log_ratio(best), ratio=best, witness={
        "numerator_records": list(wit[0]),
        "denominator_records": list(wit[1]),
        "outcome": wit[2],
    })


def output_entropy_scan(t):
    """output_entropy of tables t by float() of the outcome masses."""
    total = 0.0
    for pr in t.p_r:
        if pr == 0:
            continue
        total -= float(pr) * math.log(float(pr))
    return Quantity(nats=total)


# ---------------------------------------------------------------------------
# Prior validation, one Fraction sum per table
# ---------------------------------------------------------------------------


def table_error(universe, blocks, tables):
    """The message of the first table JointPrior rejects, checking each key
    (length, symbols, sign) in table order and then the Fraction (or float)
    sum of the table; None when every table passes. blocks are sorted and
    ordered, as JointPrior keeps them."""
    for b, table in zip(blocks, tables):
        total = 0
        for key, p in table.items():
            key = tuple(key)
            if len(key) != len(b):
                return f"table key {key} does not match block {b}"
            for i, sym in zip(b, key):
                if sym not in universe.alphabets[i]:
                    return f"symbol {sym!r} not in alphabet of individual {i}"
            if p < 0:
                return f"negative probability at {key} in block {b}"
            total += p
        if abs(float(total) - 1.0) > TOL:
            return f"table of block {b} sums to {float(total)!r}, expected 1"
    return None


# ---------------------------------------------------------------------------
# Worst-case search, every extremal candidate built, filtered and measured
# ---------------------------------------------------------------------------


def _dirichlet(rng, m):
    es = [-math.log(max(rng.random(), 1e-300)) for _ in range(m)]
    s = left_sum(es)
    return [e / s for e in es]


def sample_prior(universe, family, rng, *, tries=200):
    """sample_prior as a build-and-check loop: each try's draw becomes a
    JointPrior, kept when check_membership accepts it."""
    n = universe.n
    k_eff = n if family.k is None else min(family.k, n)
    band = family.effective_band()
    ell_req = 0
    tau = math.inf
    if band is not None:
        tau, ell_req = band
        ell_req = min(ell_req, n)
    force_independent = family.exp_delta is not None and family.exp_delta == 0

    for _ in range(tries):
        band_set = sorted(rng.sample(range(n), ell_req)) if ell_req else []
        free = [i for i in range(n) if i not in band_set]
        max_b = 1 if force_independent else min(k_eff, max(len(free), 1))
        b_size = 1 if max_b <= 1 else rng.randint(1, max_b)
        if b_size > 1 and len(free) >= b_size:
            members = tuple(sorted(rng.sample(free, b_size)))
        else:
            members = ()

        blocks = []
        tables = []
        if members:
            blocks.append(members)
            cells = list(
                itertools.product(*(universe.alphabets[i] for i in members))
            )
            weights = _dirichlet(rng, len(cells))
            tables.append({c: w for c, w in zip(cells, weights)})
        for i in range(n):
            if i in members:
                continue
            alpha = universe.alphabets[i]
            m = len(alpha)
            if i in band_set and not math.isinf(exp_or_inf(tau)):
                if tau == 0:
                    ws = [Fraction(1, m)] * m
                else:
                    raw = [math.exp(rng.uniform(-tau, tau)) for _ in range(m)]
                    s = left_sum(raw)
                    ws = [w / s for w in raw]
            else:
                ws = _dirichlet(rng, m)
            blocks.append((i,))
            tables.append({(sym,): w for sym, w in zip(alpha, ws)})
        candidate = JointPrior(universe, tuple(blocks), tuple(tables))
        if check_membership(candidate, family).ok:
            return candidate
    return None


def _pair_layouts(channel, family, tgt, budget):
    """Every near-point-mass pair candidate compatible with the family's
    block budget, walked over change_sequence_pairs, as (class key,
    numerator sequence, denominator sequence, dependent block): the member
    walk that audit._pair_classes replaces.

    Differing coordinates outside the target group must share one dependent
    block with a group coordinate (otherwise they average out of the ratio),
    which caps the usable radius at |target| + k - 1 record changes.

    Permuting the non-target individuals of one alphabet changes neither
    the (target records, histogram) joint nor the block sizes, sigma or the
    band, so candidates with the same key (the target's records in both
    sequences and the multiset of (alphabet, numerator, denominator) over
    the others) measure and pass membership alike.
    """
    u = channel.universe
    n = u.n
    k_eff = n if family.k is None else min(family.k, n)
    radius = min(n, len(tgt) + k_eff - 1)
    others = [(j, u.alphabets[j]) for j in range(n) if j not in tgt]
    for s_num, s_den in change_sequence_pairs(u, radius, budget):
        diff = [i for i in range(n) if s_num[i] != s_den[i]]
        inside = [i for i in diff if i in tgt]
        if not inside:
            continue
        outside = [i for i in diff if i not in tgt]
        if outside:
            if len(outside) > k_eff - 1:
                continue
            block = tuple(sorted(outside + [inside[0]]))
        else:
            block = ()
        key = (
            "pair",
            tuple(s_num[i] for i in tgt),
            tuple(s_den[i] for i in tgt),
            tuple(sorted((a, s_num[j], s_den[j]) for j, a in others)),
        )
        yield key, s_num, s_den, block


def _pdelta_layouts(channel, family, tgt, budget):
    """Every shared/private-complement construction for bounded dependence,
    as (class key, x_num, x_den, comp_shared, comp_num, comp_den) like the
    pair candidates (the member walk that audit._pdelta_classes replaces);
    the key is the target's two records and the multiset
    of (alphabet, shared, numerator, denominator) complement symbols over
    the other individuals.

    Only defined for singleton targets, and they occupy one full-size block,
    so they are generated only when the family's block budget allows it."""
    u = channel.universe
    n = u.n
    if len(tgt) != 1 or family.exp_delta is None:
        return
    if family.k is not None and family.k < n:
        return
    i = tgt[0]
    others = [j for j in range(n) if j != i]
    alphas = [u.alphabets[j] for j in others]
    comps = list(itertools.product(*alphas))
    alpha_i = u.alphabets[i]
    count = len(alpha_i) * (len(alpha_i) - 1) * len(comps) ** 3
    check_budget(count, budget, "worstcase_sup")
    for x_num in alpha_i:
        for x_den in alpha_i:
            if x_num == x_den:
                continue
            for comp_shared in comps:
                for comp_num in comps:
                    for comp_den in comps:
                        key = ("pdelta", x_num, x_den, tuple(sorted(
                            zip(alphas, comp_shared, comp_num, comp_den)
                        )))
                        yield (key, x_num, x_den, comp_shared, comp_num,
                               comp_den)


def walk_classes(layouts):
    """(member count, *first member's layout) per class key of a member
    walk, in order of first appearance."""
    classes = {}
    for key, *layout in layouts:
        if key in classes:
            classes[key][0] += 1
        else:
            classes[key] = [1, *layout]
    return [tuple(c) for c in classes.values()]


def _extremal_pair_candidates(channel, family, tgt, eta, budget):
    """The search's pair candidates as (class key, build), where build()
    returns (the built pair prior, description)."""
    u = channel.universe
    for key, s_num, s_den, block in _pair_layouts(channel, family, tgt,
                                                  budget):
        yield key, functools.partial(_pair_candidate, u, s_num, s_den,
                                     block, eta)


def _pair_candidate(u, s_num, s_den, block, eta):
    prior = extremal_pair_prior(u, s_num, s_den, block=block, eta=eta)
    return prior, _pair_description(s_num, s_den, block)


def _extremal_pdelta_candidates(channel, family, tgt, eta, budget):
    """The search's shared/private-complement candidates as (class key,
    build), where build() returns (the built prior, description)."""
    u = channel.universe
    for key, *layout in _pdelta_layouts(channel, family, tgt, budget):
        yield key, functools.partial(_pdelta_candidate, u, tgt[0],
                                     family.exp_delta, eta, *layout)


def extremal_pdelta_prior(universe, i, x_num, x_den, comp_shared, comp_num,
                          comp_den, exp_delta, *, eta=DEFAULT_ETA):
    """privlens.extremal_pdelta_prior with its checks in the same order,
    each branch's sequence put together and validated, and its weight the
    product of eta or 1 - eta with exp_delta or 1 - exp_delta, summed from
    an int 0 into the one table."""
    if not (0 <= i < universe.n):
        raise PriorError(f"target {i} out of range")
    exp_delta = parse_probability(exp_delta)
    if not (0 < eta < 1):
        raise PriorError("eta must be strictly between 0 and 1")
    if x_num == x_den:
        raise PriorError("target records must differ")
    others = [j for j in range(universe.n) if j != i]
    table = {}
    for x, comp, w in ((x_num, comp_shared, eta * exp_delta),
                       (x_num, comp_num, eta * (1 - exp_delta)),
                       (x_den, comp_shared, (1 - eta) * exp_delta),
                       (x_den, comp_den, (1 - eta) * (1 - exp_delta))):
        comp = tuple(comp)
        if len(comp) != len(others):
            raise PriorError("complement length does not match n-1")
        seq = [None] * universe.n
        seq[i] = x
        for j, sym in zip(others, comp):
            seq[j] = sym
        seq = universe.validate_sequence(seq)
        if w != 0:
            table[seq] = table.get(seq, 0) + w
    return JointPrior(universe, (tuple(range(universe.n)),), (table,))


def _pdelta_candidate(u, i, exp_delta, eta, x_num, x_den, comp_shared,
                      comp_num, comp_den):
    prior = extremal_pdelta_prior(u, i, x_num, x_den, comp_shared, comp_num,
                                  comp_den, exp_delta, eta=eta)
    return prior, _pdelta_description(x_num, x_den, comp_shared, comp_num,
                                      comp_den)


def _measure_built(build, channel, family, tgt, budget):
    """(max_mi of build()'s prior, description), or (None, description)
    when the prior is not a family member."""
    prior, desc = build()
    if not check_membership(prior, family).ok:
        return None, desc
    return max_mi(prior, channel, tgt, budget), desc


def worstcase_sup(channel, family, target, *, rng=None, samples=1000,
                  eta=DEFAULT_ETA, budget=None):
    """worstcase_sup without symmetry classes: the candidate keys are
    ignored and each candidate is a prior of its own, filtered by
    check_membership and measured by max_mi (_measure_built); sampled
    members come from the build-and-check sample_prior above."""
    tgt = normalize_target(channel.universe.n, target)
    best = None
    best_wit = None
    notes = []
    evaluated = {"extremal": 0, "sampled": 0, "rejected_samples": 0,
                 "filtered_candidates": 0}

    def consider(q, desc, origin):
        nonlocal best, best_wit
        evaluated[origin] += 1
        r = q.ratio
        if best is None or r > best:
            best = r
            best_wit = dict(desc)
            best_wit["leak"] = q.witness
            best_wit["origin"] = origin

    candidates = itertools.chain(
        _extremal_pair_candidates(channel, family, tgt, eta, budget),
        _extremal_pdelta_candidates(channel, family, tgt, eta, budget),
    )
    for _, build in candidates:
        q, desc = _measure_built(build, channel, family, tgt, budget)
        if q is None:
            evaluated["filtered_candidates"] += 1
            continue
        consider(q, desc, "extremal")
    extremal_best = best
    if evaluated["extremal"] == 0:
        notes.append("no admissible extremal construction for this family")

    if samples > 0:
        if rng is None:
            rng = random.Random(0)
            notes.append("no rng given; sampled strategy seeded with 0")
        for _ in range(samples):
            p = sample_prior(channel.universe, family, rng)
            if p is None:
                evaluated["rejected_samples"] += 1
                continue
            desc = {"kind": "sampled_member",
                    "blocks": [list(b) for b in p.blocks]}
            consider(max_mi(p, channel, tgt, budget), desc, "sampled")

    if best is None:
        return SupResult(
            ratio=Fraction(1), target=tgt, witness=None,
            evaluated=evaluated,
            notes=tuple(notes + ["no prior evaluated; sup is vacuous"]),
            conclusive=False,
        )
    conclusive = evaluated["extremal"] > 0
    if (
        conclusive
        and best_wit is not None
        and best_wit.get("origin") == "sampled"
        and extremal_best is not None
        and float(best) > float(extremal_best) * (1 + 1e-12)
    ):
        conclusive = False
        notes.append(
            "a sampled member exceeded every extremal construction; "
            "treating the sup as inconclusive"
        )
    return SupResult(
        ratio=best, target=tgt, witness=best_wit,
        evaluated=evaluated, notes=tuple(notes), conclusive=conclusive,
    )


# ---------------------------------------------------------------------------
# Dependence coefficient, every sum started from int 0
# ---------------------------------------------------------------------------


def sigma(prior):
    """sigma with its marginal, conditional and overlap sums started from an
    int 0 instead of their first term."""
    best = None
    witness = None
    for b, table in zip(prior.blocks, prior.tables):
        for pos, i in enumerate(b):
            marg = {}
            for key, p in table.items():
                if p == 0:
                    continue
                marg[key[pos]] = marg.get(key[pos], 0) + p
            values = [v for v in prior.universe.alphabets[i]
                      if marg.get(v, 0) > 0]
            if len(values) < 2:
                continue
            cond = {v: {} for v in values}
            for key, p in table.items():
                if p == 0 or key[pos] not in cond:
                    continue
                comp = key[:pos] + key[pos + 1:]
                d = cond[key[pos]]
                d[comp] = d.get(comp, 0) + p
            for a_idx in range(len(values)):
                for b_idx in range(a_idx + 1, len(values)):
                    va, vb = values[a_idx], values[b_idx]
                    da, db = cond[va], cond[vb]
                    ma, mb = marg[va], marg[vb]
                    overlap = 0
                    for comp, pa in da.items():
                        pb = db.get(comp)
                        if pb is None:
                            continue
                        overlap = overlap + min(pa / ma, pb / mb)
                    if best is None or overlap < best:
                        best = overlap
                        witness = (i, va, vb)
    if best is None:
        return Fraction(0), None
    return 1 - best, witness


def dict_sigma(alphabets, layout):
    """sigma over layout, (block, items) pairs in block order, where items
    are the block's (cell, mass) pairs in table order: each position's
    marginal and conditionals gathered into dicts per call, every sum
    started from its first term, as the library's loop did before its
    index plans."""
    best = None
    witness = None
    for b, items in layout:
        for pos, i in enumerate(b):
            marg = {}
            for key, p in items:
                if p == 0:
                    continue
                old = marg.get(key[pos])
                marg[key[pos]] = p if old is None else old + p
            values = [v for v in alphabets[i] if marg.get(v, 0) > 0]
            if len(values) < 2:
                continue
            cond = {v: {} for v in values}
            for key, p in items:
                if p == 0 or key[pos] not in cond:
                    continue
                comp = key[:pos] + key[pos + 1:]
                d = cond[key[pos]]
                old = d.get(comp)
                d[comp] = p if old is None else old + p
            for a_idx in range(len(values)):
                for b_idx in range(a_idx + 1, len(values)):
                    va, vb = values[a_idx], values[b_idx]
                    da, db = cond[va], cond[vb]
                    ma, mb = marg[va], marg[vb]
                    overlap = None
                    for comp, pa in da.items():
                        pb = db.get(comp)
                        if pb is None:
                            continue
                        m = min(pa / ma, pb / mb)
                        overlap = m if overlap is None else overlap + m
                    if overlap is None:
                        overlap = 0
                    if best is None or overlap < best:
                        best = overlap
                        witness = (i, va, vb)
    if best is None:
        return Fraction(0), None
    return 1 - best, witness


def draw_member(universe, family, rng, *, tries=200):
    """draw_member with its setup made per call and its membership read
    per try from (cell, mass) lists of every block: the family's bounds
    and band recomputed, each block's cells listed, sigma read by
    dict_sigma on the blocks of two or more, and each band marginal
    aggregated into a dict keyed by (symbol,)."""
    n = universe.n
    alphabets = universe.alphabets
    k_eff = n if family.k is None else min(family.k, n)
    band = family.effective_band()
    ell_req = 0
    tau = math.inf
    if band is not None:
        tau, ell_req = band
        ell_req = min(ell_req, n)
    bounded = not math.isinf(exp_or_inf(tau))
    force_independent = family.exp_delta is not None and family.exp_delta == 0

    for _ in range(tries):
        band_set = sorted(rng.sample(range(n), ell_req)) if ell_req else []
        free = [i for i in range(n) if i not in band_set]
        max_b = 1 if force_independent else min(k_eff, max(len(free), 1))
        b_size = 1 if max_b <= 1 else rng.randint(1, max_b)
        if b_size > 1 and len(free) >= b_size:
            members = tuple(sorted(rng.sample(free, b_size)))
            joint = _dirichlet(rng, prod(len(alphabets[i]) for i in members))
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
            m = len(alphabets[i])
            if i in band_set and bounded:
                if tau == 0:
                    ws = [Fraction(1, m)] * m
                else:
                    raw = [math.exp(rng.uniform(-tau, tau)) for _ in range(m)]
                    s = left_sum(raw)
                    ws = [w / s for w in raw]
            else:
                ws = _dirichlet(rng, m)
            blocks.append((i,))
            masses.append(ws)
        blocks = tuple(blocks)
        layout = [
            (b, list(zip(itertools.product(*(alphabets[i] for i in b)), ms)))
            for b, ms in zip(blocks, masses)
        ]
        sig = count = None
        if family.exp_delta is not None:
            sig, _ = dict_sigma(alphabets, [(b, items) for b, items in layout
                                            if len(b) > 1])
        if band is not None:
            count = _band_count(alphabets, band[0], layout)
        if not membership_violations(family, max(map(len, blocks)), sig,
                                     count):
            return blocks, masses
    return None


def _band_count(alphabets, tau, layout):
    """The number of individuals in the exp(+-tau) band of the prior whose
    (block, items) pairs are layout, each marginal summed from an int 0
    into a dict keyed by (symbol,)."""
    if math.isinf(exp_or_inf(tau)):
        return len(alphabets)
    lo = math.exp(-tau) - TOL
    hi = math.exp(tau) + TOL
    where = {i: (pos, items) for b, items in layout
             for pos, i in enumerate(b)}
    count = 0
    for i, alphabet in enumerate(alphabets):
        pos, items = where[i]
        marg = {}
        for key, p in items:
            if p != 0:
                marg[key[pos],] = marg.get((key[pos],), 0) + p
        m = len(alphabet)
        count += all(lo <= float(marg.get((sym,), 0)) * m <= hi
                     for sym in alphabet)
    return count


# ---------------------------------------------------------------------------
# Dependence and averaging scans, one row lookup per dataset sequence
# ---------------------------------------------------------------------------


def _dataset(n, i, x_i, others, comp):
    s = [None] * n
    s[i] = x_i
    for j, sym in zip(others, comp):
        s[j] = sym
    return tuple(s)


def necessary_pdelta(channel, *, exp_delta, epsilon=None, exp_epsilon=None):
    """necessary_pdelta by every complement sequence of each individual: the
    row of each (record, complement) dataset, then the mediant ratio for
    each record pair, complement and outcome, the first maximum kept."""
    exp_delta = parse_probability(exp_delta)
    bound = _parse_bound(epsilon, exp_epsilon)
    u = channel.universe
    n = u.n
    n_out = len(channel.outcomes)
    best = None
    wit = None
    for i in range(n):
        others = [j for j in range(n) if j != i]
        comps = list(itertools.product(*(u.alphabets[j] for j in others)))
        alpha = u.alphabets[i]
        cell = {
            (x, c): channel.rows[histogram(u, _dataset(n, i, x, others, c))]
            for x in alpha for c in comps
        }
        hi = {}
        lo = {}
        for x in alpha:
            for j in range(n_out):
                vals = [cell[(x, c)][j] for c in comps]
                hi[(x, j)] = max(vals)
                lo[(x, j)] = min(vals)
        for x_num in alpha:
            for x_den in alpha:
                if x_num == x_den:
                    continue
                for c in comps:
                    for j in range(n_out):
                        num = (cell[(x_num, c)][j] * exp_delta
                               + hi[(x_num, j)] * (1 - exp_delta))
                        den = (cell[(x_den, c)][j] * exp_delta
                               + lo[(x_den, j)] * (1 - exp_delta))
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


def sufficient_nk(channel, k, *, epsilon=None, exp_epsilon=None, tau=0.0,
                  marginals=None):
    """sufficient_nk by every dataset sequence: each averaged row sums
    weight times row over the averaging set's cells in product order, one
    row per (record, free assignment). Marginals are taken as valid."""
    u = channel.universe
    n = u.n
    bound = _parse_bound(epsilon, exp_epsilon)
    n_out = len(channel.outcomes)
    notes = []
    conclusive = True
    supplied = None
    if marginals is not None:
        supplied = {
            j: {s: parse_probability(table.get(s, 0)) for s in u.alphabets[j]}
            for j, table in marginals.items()
        }
        notes.append("evaluated at the supplied in-band marginals")
    elif tau > 0:
        conclusive = False
        notes.append(
            "tau > 0 without supplied marginals: uniform plus band-edge "
            "corner stress set, a heuristic rather than a certificate"
        )
    best = None
    wit = None
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for avg_set in itertools.combinations(others, n - k - 1):
            free = [j for j in others if j not in avg_set]
            if supplied is not None:
                options = [[supplied.get(j) or _uniform_marginal(u, j)]
                           for j in avg_set]
            elif tau == 0:
                options = [[_uniform_marginal(u, j)] for j in avg_set]
            else:
                options = [
                    [_uniform_marginal(u, j),
                     *_band_corners(u.alphabets[j], tau)]
                    for j in avg_set
                ]
                if math.prod(map(len, options)) > 4096:
                    options = [[_uniform_marginal(u, j)] for j in avg_set]
                    note = "corner stress set too large; fell back to uniform only"
                    if note not in notes:
                        notes.append(note)
            avg_cells = list(itertools.product(*(u.alphabets[j] for j in avg_set)))
            free_cells = list(itertools.product(*(u.alphabets[j] for j in free)))
            for weight_choice in itertools.product(*options):
                weights = dict(zip(avg_set, weight_choice))
                table = {}
                for x_i in u.alphabets[i]:
                    for x_free in free_cells:
                        acc = [Fraction(0)] * n_out
                        for x_avg in avg_cells:
                            w = Fraction(1)
                            for j, sym in zip(avg_set, x_avg):
                                w = w * weights[j][sym]
                            if w == 0:
                                continue
                            seq = _dataset(n, i, x_i, avg_set + tuple(free),
                                           x_avg + x_free)
                            row = channel.rows[histogram(u, seq)]
                            for jj in range(n_out):
                                acc[jj] = acc[jj] + w * row[jj]
                        table[(x_i, x_free)] = acc
                for jj in range(n_out):
                    for x_num in u.alphabets[i]:
                        num = max(table[(x_num, xf)][jj] for xf in free_cells)
                        for x_den in u.alphabets[i]:
                            if x_num == x_den:
                                continue
                            den = min(table[(x_den, xf)][jj] for xf in free_cells)
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
