"""Command line front end.

Scenarios are JSON files declaring a universe, named priors and mechanisms,
an optional prior family, seeds and budgets, and one section per subcommand
with that task's parameters. Reports are canonical JSON (sorted keys, fixed
separators, rationals as strings) so identical runs produce identical bytes;
wall-clock timing goes to stderr only.

Exit codes: 0 all checks pass, 1 a check is violated, 2 only inconclusive
evidence, 3 enumeration budget exceeded, 4 malformed input, including a
malformed command line (``--help`` exits 0). Input errors win
over budget errors, which win over violations, which win over inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import __version__
from .audit import (
    AuditError,
    Verdict,
    _number,
    _parse_bound,
    bound_pdelta,
    certify_pk,
    group_certify,
    leq_with_tol,
    necessary_pdelta,
    personalized_check,
    sufficient_nk,
    tightness_pk,
    worstcase_sup,
)
from .compose import (
    CompositionError,
    EpochModel,
    certify_composition,
    direct_epoch_max_mi,
    epoch_leakage,
    equal_epoch_reduction,
)
from .leakage import LeakageError, leakage_report, normalize_target
from .mechanism import (
    Channel,
    ChannelError,
    geometric_counting_channel,
    matrix_channel,
    randomized_response_channel,
)
from .prior import (
    FamilyParams,
    JointPrior,
    PriorError,
    check_membership,
    independent_prior,
    prior_from_flat,
)
from .probability import (
    ProbabilityError,
    format_number,
    parse_probability,
    ratios_agree,
)
from .universe import (
    BOT,
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    RecordUniverse,
    UniverseError,
    uniform_universe,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


class SchemaError(ValueError):
    """The scenario file does not match the expected shape."""


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def _expect(raw, kind, what):
    """raw when it is a list or a dict (as kind says), else a SchemaError
    naming what, so a malformed shape never reaches the builders."""
    if not isinstance(raw, kind):
        shape = "a list" if kind is list else "an object"
        raise SchemaError(f"{what} must be {shape}, got {raw!r}")
    return raw


def _symbol(raw) -> str:
    if raw == "BOT":
        return BOT
    if not isinstance(raw, str):
        raise SchemaError(f"record symbols must be strings, got {raw!r}")
    return raw


def build_universe(raw, budget=None) -> RecordUniverse:
    if not isinstance(raw, dict):
        raise SchemaError("universe must be an object")
    if "alphabets" in raw:
        alphabets = _expect(raw["alphabets"], list, "universe.alphabets")
        return RecordUniverse(tuple(
            tuple(_symbol(s) for s in _expect(a, list, "universe.alphabets entry"))
            for a in alphabets
        ))
    if "n" in raw and "alphabet" in raw:
        return uniform_universe(
            parse_int(raw["n"], "universe.n"),
            tuple(_symbol(s) for s in _expect(raw["alphabet"], list,
                                              "universe.alphabet")),
            budget,
        )
    raise SchemaError("universe needs alphabets, or n with a shared alphabet")


def build_prior(universe: RecordUniverse, raw) -> JointPrior:
    if not isinstance(raw, dict):
        raise SchemaError("prior must be an object")
    if "independent" in raw:
        margs = _expect(raw["independent"], list, "prior.independent")
        if len(margs) != universe.n:
            raise SchemaError("independent prior needs one marginal per individual")
        tables = []
        for i, entries in enumerate(margs):
            _expect(entries, list, "prior.independent entry")
            alpha = universe.alphabets[i]
            if len(entries) != len(alpha):
                raise SchemaError(
                    f"marginal {i} needs {len(alpha)} entries in alphabet order"
                )
            tables.append({alpha[j]: entries[j] for j in range(len(alpha))})
        return independent_prior(
            universe,
            [{s: parse_probability(p) for s, p in t.items()} for t in tables],
        )
    if "blocks" in raw and "tables" in raw:
        blocks = [
            [parse_int(i, "prior.blocks index")
             for i in _expect(b, list, "prior.blocks entry")]
            for b in _expect(raw["blocks"], list, "prior.blocks")
        ]
        tables = [
            _expect(t, list, "prior.tables entry")
            for t in _expect(raw["tables"], list, "prior.tables")
        ]
        return prior_from_flat(universe, blocks, tables)
    raise SchemaError("prior needs blocks+tables or independent marginals")


def build_mechanism(universe: RecordUniverse, raw, budget=None) -> Channel:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SchemaError("mechanism must be an object with a type")
    kind = raw["type"]
    if kind == "matrix":
        if "outcomes" not in raw or "rows" not in raw:
            raise SchemaError("matrix mechanism needs outcomes and rows")
        rows = _expect(raw["rows"], dict, "matrix rows")
        for row in rows.values():
            _expect(row, list, "matrix row")
        outcomes = _expect(raw["outcomes"], list, "matrix outcomes")
        return matrix_channel(universe, tuple(outcomes), rows, budget)
    if kind == "geometric_counting":
        epsilon, max_count = raw.get("epsilon"), raw.get("max_count")
        return geometric_counting_channel(
            universe,
            _symbol(raw.get("target_symbol")),
            ratio=raw.get("ratio"),
            epsilon=None if epsilon is None else _number(epsilon, "epsilon"),
            max_count=(None if max_count is None
                       else parse_int(max_count, "max_count")),
            budget=budget,
        )
    if kind == "randomized_response":
        if "keep_prob" not in raw:
            raise SchemaError("randomized_response needs keep_prob")
        return randomized_response_channel(universe, raw["keep_prob"], budget)
    raise SchemaError(f"unknown mechanism type {kind!r}")


def build_family(raw) -> FamilyParams:
    if not isinstance(raw, dict):
        raise SchemaError("family must be an object")
    delta = raw.get("delta")
    if isinstance(delta, str):
        if delta.strip() in ("-inf", "-Infinity"):
            delta = -math.inf
        else:
            raise SchemaError(f"bad delta {delta!r}; use a number or \"-inf\"")
    elif delta is not None:
        delta = _number(delta, "family.delta")
    k, ell, tau = raw.get("k"), raw.get("ell"), raw.get("tau")
    if tau is not None:
        # Checked only: the family reports tau as given.
        _number(tau, "family.tau")
    return FamilyParams.of(
        k=None if k is None else parse_int(k, "family.k"),
        delta=delta,
        exp_delta=raw.get("exp_delta"),
        ell=None if ell is None else parse_int(ell, "family.ell"),
        tau=tau,
    )


def parse_int(raw, what, least=None) -> int:
    """An integer scenario value: a JSON integer, an integral number or a
    decimal string. Anything else, or a value below least (None, 0 or 1)
    when given, is a SchemaError naming what."""
    if isinstance(raw, str):
        try:
            raw = int(raw)
        except ValueError:
            pass
    elif isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if (not isinstance(raw, int) or isinstance(raw, bool)
            or (least is not None and raw < least)):
        kind = ("an integer" if least is None
                else "a positive integer" if least else "a nonnegative integer")
        raise SchemaError(f"{what} must be {kind}, got {raw!r}")
    return raw


class Scenario:
    """Parsed scenario: shared objects plus raw per-command sections.

    budget, seed and samples, when given, are the command-line overrides of
    the scenario's own values; an overridden seed or sample count is not
    read. The scalars are read before any object is built, so a malformed
    one is an input error even where a build would exceed the budget."""

    def __init__(self, raw: dict, budget=None, seed=None, samples=None):
        if not isinstance(raw, dict):
            raise SchemaError("scenario must be a JSON object")
        self.raw = raw
        self.name = raw.get("name")
        self.budget = parse_int(raw.get("budget", DEFAULT_ENUMERATION_BUDGET),
                                "budget", least=1)
        if budget is not None:
            self.budget = parse_int(budget, "--budget", least=1)
        self.seed = parse_int(raw.get("seed", 0), "seed") if seed is None else seed
        self.samples = (parse_int(raw.get("samples", 1000), "samples", least=0)
                        if samples is None
                        else parse_int(samples, "--samples", least=0))
        if "universe" not in raw:
            raise SchemaError("scenario needs a universe")
        self.universe = build_universe(raw["universe"], self.budget)
        self.priors = {}
        priors = _expect(raw.get("priors") or {}, dict, "priors")
        for name, p in priors.items():
            self.priors[name] = build_prior(self.universe, p)
        self.mechanisms = {}
        mechanisms = _expect(raw.get("mechanisms") or {}, dict, "mechanisms")
        for name, m in mechanisms.items():
            self.mechanisms[name] = build_mechanism(self.universe, m,
                                                    self.budget)
        self.family = build_family(raw["family"]) if "family" in raw else None

    def prior(self, name) -> JointPrior:
        if not isinstance(name, str) or name not in self.priors:
            raise SchemaError(f"unknown prior {name!r}")
        return self.priors[name]

    def mechanism(self, name) -> Channel:
        if not isinstance(name, str) or name not in self.mechanisms:
            raise SchemaError(f"unknown mechanism {name!r}")
        return self.mechanisms[name]

    def section(self, command) -> dict:
        sec = self.raw.get(command)
        if sec is None:
            raise SchemaError(f"scenario has no {command!r} section")
        if not isinstance(sec, dict):
            raise SchemaError(f"{command!r} section must be an object")
        return sec


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction, float)):
        return format_number(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def quantity_dict(q) -> dict:
    out = {"nats": to_jsonable(q.nats), "bits": to_jsonable(q.bits)}
    if q.ratio is not None:
        out["ratio"] = to_jsonable(q.ratio)
    if q.witness is not None:
        out["witness"] = to_jsonable(q.witness)
    if q.notes:
        out["notes"] = list(q.notes)
    return out


def membership_dict(prior, family) -> dict:
    mr = check_membership(prior, family)
    return {"ok": mr.ok, "violations": list(mr.violations),
            "notes": list(mr.notes)}


def verdict_dict(v: Verdict) -> dict:
    return {
        "claim": v.claim,
        "params": to_jsonable(v.params),
        "measured": {
            "ratio": to_jsonable(v.measured_ratio),
            "nats": to_jsonable(v.measured_nats),
        },
        "bound": {
            "ratio": to_jsonable(v.bound_ratio),
            "nats": to_jsonable(v.bound_nats),
        },
        "satisfied": v.satisfied,
        "conclusive": v.conclusive,
        "witness": to_jsonable(v.witness),
        "notes": list(v.notes),
        "details": to_jsonable(v.details),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"


def render_table(report: dict) -> str:
    lines = []
    lines.append(f"privlens {report['command']} (schema {report['schema_version']})")
    if report.get("scenario"):
        lines.append(f"scenario: {report['scenario']}")
    lines.append(f"seed: {report['seed']}  budget: {report['budget']}")

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in value:
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    for v in report.get("verdicts", []):
        lines.append("")
        lines.append(f"claim: {v['claim']}")
        lines.append(
            f"  measured ratio {v['measured']['ratio']}"
            f"  nats {v['measured']['nats']}"
        )
        lines.append(
            f"  bound ratio {v['bound']['ratio']}  nats {v['bound']['nats']}"
        )
        status = "SATISFIED" if v["satisfied"] else "VIOLATED"
        kind = "conclusive" if v["conclusive"] else "inconclusive"
        lines.append(f"  verdict: {status} ({kind})")
        for note in v.get("notes", []):
            lines.append(f"  note: {note}")
        if v.get("witness"):
            lines.append(f"  witness: {json.dumps(v['witness'], sort_keys=True)}")
    results = report.get("results")
    if results:
        lines.append("")
        emit("", results)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Section fields
# ---------------------------------------------------------------------------
# A field kind reads one value of a section: KINDS[kind](raw, what,
# scenario) returns what the task runs with, or raises an input error naming
# what ("certify.k"). An absent key is read as its default, so null and
# absent differ only where a default says so. Ranges, levels and
# probabilities are the library's to check.

ABSENT = object()  # the default of a field that falls back to the family


def _flag(raw, what, scn):
    if not isinstance(raw, bool):
        raise SchemaError(f"{what} must be true or false, got {raw!r}")
    return raw


def _name(raw, what, scn):
    if not isinstance(raw, str) or not raw:
        raise SchemaError(f"{what} must be a non-empty string, got {raw!r}")
    return raw


def _epochs(raw, what, scn):
    entries = [_expect(e, dict, f"{what} entry") for e in _expect(raw, list, what)]
    return EpochModel(tuple(
        (scn.prior(e.get("prior")), scn.mechanism(e.get("mechanism")))
        for e in entries))


def _targets(raw, what, scn):
    if raw is None:
        return None
    entries = [raw] if isinstance(raw, int) else _expect(raw, list, what)
    return [normalize_target(scn.universe.n, t) for t in entries]


def _symbol_tables(raw, what, scn):
    """Per-individual tables keyed by record symbols, "BOT" read as the
    empty record; another shape is left for the library to reject."""
    if not isinstance(raw, dict):
        return raw
    return {i: ({_symbol(s): p for s, p in t.items()}
                if isinstance(t, dict) else t)
            for i, t in raw.items()}


def _family(raw, what, scn):
    if raw is not ABSENT:
        return build_family(raw)
    if scn.family is None:
        raise SchemaError(f"{what} is missing and the scenario has no family")
    return scn.family


def _block_limit(raw, what, scn):
    # An absent k is the family's block limit, then 1; a given k, null
    # included, is read as it stands.
    if raw is ABSENT:
        return (scn.family.k if scn.family else None) or 1
    return parse_int(raw, what)


def _exp_delta(raw, what, scn):
    # Absent or null, exp_delta is the family's.
    if raw is None and scn.family is not None:
        raw = scn.family.exp_delta
    if raw is None:
        raise SchemaError(f"{what} is missing and the scenario family has none")
    return raw


KINDS = {
    "int": lambda raw, what, scn: parse_int(raw, what),
    "number": lambda raw, what, scn: _number(raw, what),
    "flag": _flag,
    "name": _name,
    "list": lambda raw, what, scn: _expect(raw, list, what),
    "object": lambda raw, what, scn: _expect(raw, dict, what),
    "prior": lambda raw, what, scn: scn.prior(raw),
    "mechanism": lambda raw, what, scn: scn.mechanism(raw),
    "mechanisms": lambda raw, what, scn: [
        scn.mechanism(name) for name in _expect(raw, list, what)],
    "epochs": _epochs,
    "targets": _targets,
    "symbol tables": _symbol_tables,
    "family": _family,
    "block limit": _block_limit,
    "exp_delta": _exp_delta,
}


class Field(NamedTuple):
    """One field of a section: its key, the kind that reads its value (None
    passes the value to the library as given), the value an absent key
    takes, and the runner's argument it fills (the key unless given)."""

    key: str
    kind: Optional[str] = None
    default: object = None
    param: Optional[str] = None


class Task(NamedTuple):
    """A section kind: its runner, its fields, and the arguments it takes
    from the scenario rather than the section. A runner returns a Verdict,
    or (results, verdicts, exit hint)."""

    run: Callable
    fields: tuple
    context: tuple = ("budget",)


def _validate(*, scenario):
    results = {
        "universe": {
            "individuals": scenario.universe.n,
            "pooled_alphabet": list(scenario.universe.pooled_alphabet),
            "achievable_histograms": len(
                scenario.universe.achievable_histograms(scenario.budget)
            ),
        },
        "priors": {
            name: p.describe() for name, p in sorted(scenario.priors.items())
        },
        "mechanisms": {
            name: m.describe() for name, m in sorted(scenario.mechanisms.items())
        },
    }
    if scenario.family is not None:
        results["family"] = to_jsonable(scenario.family.describe())
        results["membership"] = {
            name: membership_dict(scenario.priors[name], scenario.family)
            for name in sorted(scenario.priors)
        }
    return results, [], EXIT_PASS


def _leakage(prior, channel, targets, *, budget, family):
    rep = leakage_report(prior, channel, targets, budget)
    results = {
        "per_target": {
            ",".join(map(str, tgt)): {
                name: quantity_dict(q) for name, q in rep.per_target[tgt].items()
            }
            for tgt in rep.targets
        },
        "output_entropy": quantity_dict(rep.output_entropy),
        "prior_entropy_nats": to_jsonable(rep.prior_entropy_nats),
    }
    if family is not None:
        results["membership"] = membership_dict(prior, family)
    return results, [], EXIT_PASS


def _worstcase(channel, family, epsilon, exp_epsilon, target, *, budget, rng,
               samples):
    # Read before the search: input errors win over budget errors.
    level = (epsilon, exp_epsilon)
    bound = None if level == (None, None) else _parse_bound(*level)
    sup = worstcase_sup(channel, family, target, rng=rng, samples=samples,
                        budget=budget)
    results = {
        "sup": {
            "ratio": to_jsonable(sup.ratio),
            "nats": to_jsonable(sup.nats),
            "target": list(sup.target),
            "witness": to_jsonable(sup.witness),
            "evaluated": to_jsonable(sup.evaluated),
            "notes": list(sup.notes),
            "conclusive": sup.conclusive,
        }
    }
    if bound is None:
        return results, [], EXIT_PASS if sup.conclusive else EXIT_INCONCLUSIVE
    return results, [Verdict(
        claim="worst-case family leakage against a level",
        params={"target": list(sup.target)},
        measured_ratio=sup.ratio,
        bound_ratio=bound,
        satisfied=leq_with_tol(sup.ratio, bound),
        conclusive=sup.conclusive,
        witness=sup.witness,
        notes=sup.notes,
    )], EXIT_PASS


def _tightness(channel, k, *, budget):
    t = tightness_pk(channel, k, budget=budget)
    results = {
        "tightness": {
            "scan_ratio": to_jsonable(t.scan.ratio),
            "achieved_ratio": to_jsonable(t.achieved_ratio),
            "attained": t.attained,
            "target": t.target,
            "prior": to_jsonable(t.prior_summary),
            "notes": list(t.notes),
        }
    }
    return results, [], EXIT_PASS if t.attained else EXIT_VIOLATION


def _epoch_leakage(model, target, verify, *, budget):
    rep = epoch_leakage(model, target, budget)
    results = {
        "per_epoch": [quantity_dict(q) for q in rep.per_epoch],
        "total": {
            "ratio": to_jsonable(rep.total_ratio),
            "nats": to_jsonable(rep.total_nats),
            "bits": to_jsonable(rep.total_bits),
        },
    }
    if not verify:
        return results, [], EXIT_PASS
    direct = direct_epoch_max_mi(model, target, budget)
    agree = ratios_agree(rep.total_ratio, direct.ratio)
    results["direct"] = quantity_dict(direct)
    results["additivity_agrees"] = agree
    return results, [], EXIT_PASS if agree else EXIT_VIOLATION


def _equal_epochs(channels, prior, target, *, budget):
    out = equal_epoch_reduction(prior, channels, target, budget)
    results = {
        "via_product_channel": quantity_dict(out["via_product_channel"]),
        "direct_ratio": to_jsonable(out["direct_ratio"]),
        "direct_nats": to_jsonable(out["direct_nats"]),
        "agree": out["agree"],
    }
    return results, [], EXIT_PASS if out["agree"] else EXIT_VIOLATION


# Exit hints from the least to the most severe.
_SEVERITY = (EXIT_PASS, EXIT_INCONCLUSIVE, EXIT_VIOLATION)


def _sweep(over, values, task, *, scenario):
    """One row per value, each the task with over set to the value. Every
    row is read before the first runs, so an input error in any row wins
    over the budget and the checks; the exit hint is the rows' worst."""
    command = task.get("command", "bound")
    if command not in ("bound", "certify"):
        raise SchemaError(f"sweep cannot run command {command!r}")
    runs = [read_task(scenario, command, {**task, over: value})
            for value in values]
    rows, verdicts, hint = [], [], EXIT_PASS
    for value, run_row in zip(values, runs):
        results, vs, row_hint = run_row()
        verdicts.extend(vs)
        row = {"value": to_jsonable(value),
               "verdicts": [verdict_dict(v) for v in vs]}
        if results:
            row["results"] = results
        rows.append(row)
        hint = max(hint, row_hint, key=_SEVERITY.index)
    return {"over": over, "rows": rows}, verdicts, hint


CHANNEL = Field("mechanism", "mechanism", param="channel")
CHANNELS = Field("mechanisms", "mechanisms", param="channels")
PRIOR = Field("prior", "prior")
K = Field("k", "int", 1)
EPSILON = Field("epsilon")
EXP_EPSILON = Field("exp_epsilon")
EXP_DELTA = Field("exp_delta", "exp_delta")
TARGET = Field("target", default=0)
SAMPLED = ("budget", "rng", "samples")

# Every section kind, keyed by (command, kind); a command without kinds has
# the kind None. Fields are read in the order listed.
TASKS = {
    ("leakage", None): Task(_leakage, (
        PRIOR, CHANNEL, Field("targets", "targets")), ("budget", "family")),
    ("certify", "k_change"): Task(certify_pk, (
        CHANNEL, K, EPSILON, EXP_EPSILON)),
    ("certify", "necessary_dependence"): Task(necessary_pdelta, (
        CHANNEL, EXP_DELTA, EPSILON, EXP_EPSILON)),
    ("certify", "sufficient_averaged"): Task(sufficient_nk, (
        CHANNEL, K, EPSILON, EXP_EPSILON, Field("tau", "number", 0.0),
        Field("marginals", "symbol tables"))),
    ("certify", "group"): Task(group_certify, (
        CHANNEL, K, Field("group", default=[0]), EPSILON, EXP_EPSILON),
        SAMPLED),
    ("certify", "personalized"): Task(personalized_check, (
        CHANNEL, PRIOR, Field("epsilons"))),
    ("bound", "interpolated"): Task(bound_pdelta, (
        CHANNEL, EXP_DELTA, Field("k", "block limit", ABSENT), EPSILON,
        Field("exp_eps_step"), TARGET), SAMPLED),
    ("bound", "worstcase"): Task(_worstcase, (
        CHANNEL, Field("family", "family", ABSENT), EPSILON, EXP_EPSILON,
        TARGET), SAMPLED),
    ("bound", "tightness"): Task(_tightness, (CHANNEL, K)),
    ("compose", "product"): Task(certify_composition, (
        CHANNELS, K, Field("epsilons"), Field("exp_epsilons"))),
    ("compose", "epochs"): Task(_epoch_leakage, (
        Field("epochs", "epochs", param="model"), TARGET,
        Field("verify", "flag", True))),
    ("compose", "equal_epochs"): Task(_equal_epochs, (
        CHANNELS, PRIOR, TARGET)),
    ("sweep", None): Task(_sweep, (
        Field("over", "name"), Field("values", "list"),
        Field("task", "object")), ("scenario",)),
    ("validate", None): Task(_validate, (), ("scenario",)),
}
DEFAULT_KINDS = {"certify": "k_change", "bound": "interpolated",
                 "compose": "product"}


def read_task(scenario: Scenario, command, sec: dict):
    """The task a section declares, with every field read, as a callable
    that runs it and returns (results, verdicts, exit hint). Reading does
    no budgeted work, so an input error is reported before any work is
    charged to the budget. Unknown fields are ignored."""
    kind = sec.get("kind", DEFAULT_KINDS[command]) if command in DEFAULT_KINDS else None
    task = TASKS.get((command, kind)) if isinstance(kind, (str, type(None))) else None
    if task is None:
        raise SchemaError(f"unknown {command} kind {kind!r}")
    values = {}
    for key, kind_of, default, param in task.fields:
        raw = sec.get(key, default)
        values[param or key] = (raw if kind_of is None else
                                KINDS[kind_of](raw, f"{command}.{key}", scenario))
    for name in task.context:
        values[name] = (scenario if name == "scenario"
                        # Each task draws from its own generator.
                        else random.Random(scenario.seed) if name == "rng"
                        else getattr(scenario, name))

    def run_task():
        out = task.run(**values)
        return ({}, [out], EXIT_PASS) if isinstance(out, Verdict) else out

    return run_task


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _UsageError(ValueError):
    """A malformed command line: bad input, so exit 4, not argparse's 2,
    which the exit-code contract reserves for inconclusive evidence."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError instead of printing the usage and exiting 2;
    subparsers inherit the class. --help still exits 0."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state on it, and building it costs more than a small request."""
    parser = _Parser(
        prog="privlens",
        description="Exact audit of adversarial leakage for discrete mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted({command for command, _ in TASKS}):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override the scenario sample count")
        p.add_argument("--budget", default=None,
                       help="override the enumeration budget (a positive "
                            "integer; counts enumerated items or kernel steps)")
    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT

    started = time.perf_counter()
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.scenario}", file=stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=stderr)
        return EXIT_INPUT

    try:
        scenario = Scenario(raw, args.budget, args.seed, args.samples)
        # validate reads the scenario alone: it has no section.
        sec = {} if args.command == "validate" else scenario.section(args.command)
        results, verdicts, exit_hint = read_task(scenario, args.command, sec)()
        report = {
            "schema_version": 1,
            "tool": {"name": "privlens", "version": __version__},
            "command": args.command,
            "scenario": scenario.name,
            "seed": scenario.seed,
            "samples": scenario.samples,
            "budget": scenario.budget,
            "results": results,
            "verdicts": [verdict_dict(v) for v in verdicts],
        }
    except EnumerationBudgetError as exc:
        print(
            f"error: enumeration budget exceeded in {exc.stage}: "
            f"{exc.cardinality} items against budget {exc.budget}",
            file=stderr,
        )
        return EXIT_BUDGET
    except (
        SchemaError,
        UniverseError,
        PriorError,
        ChannelError,
        LeakageError,
        AuditError,
        CompositionError,
        ProbabilityError,
    ) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT

    text = render_json(report) if args.format == "json" else render_table(report)
    stdout.write(text)

    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=stderr)

    if exit_hint == EXIT_VIOLATION or any(not v.satisfied for v in verdicts):
        return EXIT_VIOLATION
    if any(not v.conclusive for v in verdicts):
        return EXIT_INCONCLUSIVE
    return exit_hint


def main() -> None:
    sys.exit(run())
