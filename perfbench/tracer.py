"""In-memory span tracer for the privlens benchmark.

The tracer wraps public functions of the privlens modules from the outside:
it replaces every module attribute (and class attribute, for methods) that
binds a traced function with a wrapper that records a span, and puts the
originals back on uninstall. Nothing in the package itself changes, and a run
without the tracer installed patches nothing.

A span is (name, start, end, parent, request). Spans of one CLI request share
the request id; the benchmark opens the request's root span around the call
into ``privlens.cli.run``. Self time of a span is its duration minus the
durations of its direct children; calls are strictly nested because the
benchmark runs one request at a time on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

ROOT = "cli.request"

# (span name, module, attribute path). Every module attribute bound to the
# same function object is wrapped, so a function imported into several
# modules (privlens.audit.max_mi and privlens.compose.max_mi, say) is traced
# whichever binding the caller uses.
SPANS = (
    ("cli.scenario", "privlens.cli", "Scenario.__init__"),
    ("cli.render", "privlens.cli", "verdict_dict"),
    ("cli.render", "privlens.cli", "render_json"),
    ("universe.achievable_histograms", "privlens.universe",
     "RecordUniverse.achievable_histograms"),
    ("universe.sequences_with_histogram", "privlens.universe",
     "RecordUniverse.sequences_with_histogram"),
    ("mechanism.build", "privlens.mechanism", "matrix_channel"),
    ("mechanism.build", "privlens.mechanism", "geometric_counting_channel"),
    ("mechanism.build", "privlens.mechanism", "randomized_response_channel"),
    ("mechanism.change_histogram_pairs", "privlens.mechanism",
     "change_histogram_pairs"),
    ("mechanism.change_sequence_pairs", "privlens.mechanism",
     "change_sequence_pairs"),
    ("mechanism.lipschitz_ratio", "privlens.mechanism", "lipschitz_ratio"),
    ("prior.build", "privlens.prior", "independent_prior"),
    ("prior.build", "privlens.prior", "prior_from_flat"),
    ("prior.sample_prior", "privlens.prior", "sample_prior"),
    ("prior.check_membership", "privlens.prior", "check_membership"),
    ("prior.sigma", "privlens.prior", "sigma"),
    ("prior.extremal", "privlens.prior", "extremal_pair_prior"),
    ("prior.extremal", "privlens.prior", "extremal_pdelta_prior"),
    ("leakage.JointTables", "privlens.leakage", "JointTables.__init__"),
    ("leakage.quantities", "privlens.leakage", "max_mi"),
    ("leakage.quantities", "privlens.leakage", "mi"),
    ("leakage.quantities", "privlens.leakage", "max_rel_entropy"),
    ("leakage.quantities", "privlens.leakage", "inferential_eps"),
    ("leakage.quantities", "privlens.leakage", "output_entropy"),
    ("audit.worstcase_sup", "privlens.audit", "worstcase_sup"),
    ("audit.tightness_pk", "privlens.audit", "tightness_pk"),
    ("compose.product_channel", "privlens.compose", "product_channel"),
    ("compose.direct_epoch_max_mi", "privlens.compose", "direct_epoch_max_mi"),
    ("compose.equal_epoch_reduction", "privlens.compose",
     "equal_epoch_reduction"),
    ("compose.epoch_leakage", "privlens.compose", "epoch_leakage"),
)

# Iterators whose items are counted but not timed: they run interleaved with
# their caller, so a span around them would measure the caller.
ITEM_COUNTERS = (
    ("universe.iter_sequences.items", "privlens.universe",
     "RecordUniverse.iter_sequences"),
    ("prior.iter_support.items", "privlens.prior", "JointPrior.iter_support"),
)

MODULES = ("cli", "universe", "mechanism", "prior", "leakage", "audit",
           "compose")

# Counters fed from call arguments and results, after the span has ended.
COUNTS = (
    "universe.achievable_histograms.calls",
    "universe.iter_sequences.items",
    "mechanism.change_histogram_pairs.pairs",
    "mechanism.change_sequence_pairs.pairs",
    "prior.sample_prior.calls",
    "prior.extremal.built",
    "prior.iter_support.items",
    "leakage.JointTables.calls",
    "leakage.JointTables.cells",
    "audit.sup.priors_evaluated",
    "audit.sup.extremal",
    "audit.sup.filtered_candidates",
)


def _count_after(tracer, name, args, result):
    c = tracer.counts
    if name == "universe.achievable_histograms":
        c["universe.achievable_histograms.calls"] += 1
    elif name in ("mechanism.change_histogram_pairs",
                  "mechanism.change_sequence_pairs"):
        c[name + ".pairs"] += len(result)
    elif name == "prior.sample_prior":
        c["prior.sample_prior.calls"] += 1
    elif name == "prior.extremal":
        c["prior.extremal.built"] += 1
    elif name == "leakage.JointTables":
        c["leakage.JointTables.calls"] += 1
        c["leakage.JointTables.cells"] += args[0].prior.support_size()
    elif name == "audit.worstcase_sup":
        ev = result.evaluated
        c["audit.sup.priors_evaluated"] += ev["extremal"] + ev["sampled"]
        c["audit.sup.extremal"] += ev["extremal"]
        c["audit.sup.filtered_candidates"] += ev["filtered_candidates"]


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # Each span: [name id, start, end, parent index, request id].
        self.spans = []
        self.requests = {}
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._req = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, 0.0, 0.0, parent, self._req])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        span = self.spans[idx]
        span[1] = start
        span[2] = end
        self._stack.pop()

    def request(self, req_id, n, call):
        """Run call() as request req_id inside its root span; returns the
        call's result."""
        self._req = req_id
        self.requests.setdefault(req_id, n)
        idx = self._open(self._name_id(ROOT))
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._close(idx, start, time.perf_counter())
            self._req = -1

    def _span_wrapper(self, name, fn):
        name_id = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, clock())
            _count_after(self, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _item_wrapper(self, name, fn):
        counts = self.counts

        def count(items):
            for item in items:
                counts[name] += 1
                yield item

        def counted(*args, **kwargs):
            # Call eagerly so argument and budget errors still raise at the
            # call, as they do unwrapped.
            return count(fn(*args, **kwargs))

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function. Names the package no
        longer has are listed in self.missing instead of failing the run."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "privlens" or name.startswith("privlens.")]
        for table, make in ((SPANS, self._span_wrapper),
                            (ITEM_COUNTERS, self._item_wrapper)):
            for name, module, path in table:
                try:
                    owner, attr = _resolve(module, path)
                    original = owner.__dict__[attr]
                except (KeyError, AttributeError):
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapper = make(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span self time, aligned with self.spans."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self):
        """Totals over all recorded requests: self seconds per span name,
        root wall seconds, and the number of requests."""
        self_by_name = defaultdict(float)
        for (name_id, *_), s in zip(self.spans, self.self_times()):
            self_by_name[self.names[name_id]] += s
        root = self._name_ids.get(ROOT)
        wall = sum(end - start for name_id, start, end, _, _ in self.spans
                   if name_id == root)
        requests = sum(1 for span in self.spans if span[0] == root)
        return dict(self_by_name), wall, requests

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent index,
        request id and the request's n."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name_id, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": self.names[name_id], "start": start,
                    "end": end, "parent": parent, "request": req,
                    "n": self.requests.get(req),
                }) + "\n")
