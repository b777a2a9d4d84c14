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
import copy
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction

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


def build_mechanism(universe: RecordUniverse, raw) -> Channel:
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
        return matrix_channel(universe, tuple(outcomes), rows)
    if kind == "geometric_counting":
        epsilon, max_count = raw.get("epsilon"), raw.get("max_count")
        return geometric_counting_channel(
            universe,
            _symbol(raw.get("target_symbol")),
            ratio=raw.get("ratio"),
            epsilon=None if epsilon is None else _number(epsilon, "epsilon"),
            max_count=(None if max_count is None
                       else parse_int(max_count, "max_count")),
        )
    if kind == "randomized_response":
        if "keep_prob" not in raw:
            raise SchemaError("randomized_response needs keep_prob")
        return randomized_response_channel(universe, raw["keep_prob"])
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


def parse_int(raw, what, positive=False) -> int:
    """An integer scenario value: a JSON integer, an integral number or a
    decimal string. Anything else, or a value below 1 when positive is set,
    is a SchemaError naming what."""
    if isinstance(raw, str):
        try:
            raw = int(raw)
        except ValueError:
            pass
    elif isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if not isinstance(raw, int) or isinstance(raw, bool) or (positive and raw < 1):
        kind = "a positive integer" if positive else "an integer"
        raise SchemaError(f"{what} must be {kind}, got {raw!r}")
    return raw


class Scenario:
    """Parsed scenario: shared objects plus raw per-command sections.

    budget, when given, overrides the scenario's own budget (as --budget
    does) for the work done while parsing."""

    def __init__(self, raw: dict, budget=None):
        if not isinstance(raw, dict):
            raise SchemaError("scenario must be a JSON object")
        self.raw = raw
        self.name = raw.get("name")
        self.budget = parse_int(
            raw.get("budget", DEFAULT_ENUMERATION_BUDGET),
            "budget",
            positive=True,
        )
        if "universe" not in raw:
            raise SchemaError("scenario needs a universe")
        self.universe = build_universe(
            raw["universe"], self.budget if budget is None else budget
        )
        self.priors = {}
        priors = _expect(raw.get("priors") or {}, dict, "priors")
        for name, p in priors.items():
            self.priors[name] = build_prior(self.universe, p)
        self.mechanisms = {}
        mechanisms = _expect(raw.get("mechanisms") or {}, dict, "mechanisms")
        for name, m in mechanisms.items():
            self.mechanisms[name] = build_mechanism(self.universe, m)
        self.family = build_family(raw["family"]) if "family" in raw else None
        self.seed = raw.get("seed", 0)
        self.samples = raw.get("samples", 1000)

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
# Command implementations
# ---------------------------------------------------------------------------


def _parse_targets(raw, n):
    if raw is None:
        return list(range(n))
    if isinstance(raw, int):
        raw = [raw]
    if not isinstance(raw, list):
        raise SchemaError(f"targets must be a list, got {raw!r}")
    return [normalize_target(n, entry) for entry in raw]


def _target_key(tgt) -> str:
    return ",".join(str(i) for i in tgt)


def cmd_validate(scenario: Scenario, args, rng) -> tuple:
    results = {
        "universe": {
            "individuals": scenario.universe.n,
            "pooled_alphabet": list(scenario.universe.pooled_alphabet),
            "achievable_histograms": len(
                scenario.universe.achievable_histograms(args.budget)
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


def cmd_leakage(scenario: Scenario, args, rng) -> tuple:
    sec = scenario.section("leakage")
    prior = scenario.prior(sec.get("prior"))
    channel = scenario.mechanism(sec.get("mechanism"))
    targets = _parse_targets(sec.get("targets"), scenario.universe.n)
    rep = leakage_report(prior, channel, targets, args.budget)
    per = {}
    for tgt in rep.targets:
        per[_target_key(tgt)] = {
            name: quantity_dict(q) for name, q in rep.per_target[tgt].items()
        }
    results = {
        "per_target": per,
        "output_entropy": quantity_dict(rep.output_entropy),
        "prior_entropy_nats": to_jsonable(rep.prior_entropy_nats),
    }
    if scenario.family is not None:
        results["membership"] = membership_dict(prior, scenario.family)
    return results, [], EXIT_PASS


def _run_certify_task(scenario: Scenario, sec: dict, args, rng) -> Verdict:
    kind = sec.get("kind", "k_change")
    channel = scenario.mechanism(sec.get("mechanism"))
    if kind == "k_change":
        return certify_pk(
            channel,
            parse_int(sec.get("k", 1), "certify.k"),
            epsilon=sec.get("epsilon"),
            exp_epsilon=sec.get("exp_epsilon"),
            budget=args.budget,
        )
    if kind == "necessary_dependence":
        fam = scenario.family
        exp_delta = sec.get("exp_delta")
        if exp_delta is None and fam is not None:
            exp_delta = fam.exp_delta
        if exp_delta is None:
            raise SchemaError("necessary_dependence needs exp_delta")
        return necessary_pdelta(
            channel,
            exp_delta=exp_delta,
            epsilon=sec.get("epsilon"),
            exp_epsilon=sec.get("exp_epsilon"),
            budget=args.budget,
        )
    if kind == "sufficient_averaged":
        return sufficient_nk(
            channel,
            parse_int(sec.get("k", 1), "certify.k"),
            epsilon=sec.get("epsilon"),
            exp_epsilon=sec.get("exp_epsilon"),
            tau=_number(sec.get("tau", 0.0), "certify.tau"),
            marginals=sec.get("marginals"),
            budget=args.budget,
        )
    if kind == "group":
        return group_certify(
            channel,
            parse_int(sec.get("k", 1), "certify.k"),
            sec.get("group", [0]),
            epsilon=sec.get("epsilon"),
            exp_epsilon=sec.get("exp_epsilon"),
            rng=rng,
            samples=args.samples,
            budget=args.budget,
        )
    if kind == "personalized":
        prior = scenario.prior(sec.get("prior"))
        if "epsilons" not in sec:
            raise SchemaError("personalized needs epsilons")
        return personalized_check(
            channel, prior, sec["epsilons"], budget=args.budget
        )
    raise SchemaError(f"unknown certify kind {kind!r}")


def cmd_certify(scenario: Scenario, args, rng) -> tuple:
    sec = scenario.section("certify")
    v = _run_certify_task(scenario, sec, args, rng)
    return {}, [v], EXIT_PASS


def cmd_bound(scenario: Scenario, args, rng) -> tuple:
    sec = scenario.section("bound")
    kind = sec.get("kind", "interpolated")
    channel = scenario.mechanism(sec.get("mechanism"))
    if kind == "interpolated":
        exp_delta = sec.get("exp_delta")
        if exp_delta is None and scenario.family is not None:
            exp_delta = scenario.family.exp_delta
        if exp_delta is None:
            raise SchemaError("interpolated bound needs exp_delta")
        # An absent k falls back to the family's block limit, then to 1; a
        # given k is read as it stands, so 0 or null is an input error.
        if "k" in sec:
            k = parse_int(sec["k"], "bound.k")
        else:
            k = (scenario.family.k if scenario.family else None) or 1
        v = bound_pdelta(
            channel,
            k,
            exp_delta=exp_delta,
            epsilon=sec.get("epsilon"),
            exp_eps_step=sec.get("exp_eps_step"),
            target=sec.get("target", 0),
            rng=rng,
            samples=args.samples,
            budget=args.budget,
        )
        return {}, [v], EXIT_PASS
    if kind == "worstcase":
        fam = scenario.family
        if "family" in sec:
            fam = build_family(sec["family"])
        if fam is None:
            raise SchemaError("worstcase needs a family")
        # Read before the search: input errors win over budget errors.
        level = (sec.get("epsilon"), sec.get("exp_epsilon"))
        bound = None if level == (None, None) else _parse_bound(*level)
        sup = worstcase_sup(
            channel,
            fam,
            sec.get("target", 0),
            rng=rng,
            samples=args.samples,
            budget=args.budget,
        )
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
        verdicts = []
        if bound is not None:
            verdicts.append(
                Verdict(
                    claim="worst-case family leakage against a level",
                    params={"target": list(sup.target)},
                    measured_ratio=sup.ratio,
                    bound_ratio=bound,
                    satisfied=leq_with_tol(sup.ratio, bound),
                    conclusive=sup.conclusive,
                    witness=sup.witness,
                    notes=sup.notes,
                )
            )
        exit_hint = EXIT_PASS if (verdicts or sup.conclusive) else EXIT_INCONCLUSIVE
        return results, verdicts, exit_hint
    if kind == "tightness":
        t = tightness_pk(
            channel, parse_int(sec.get("k", 1), "bound.k"), budget=args.budget
        )
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
    raise SchemaError(f"unknown bound kind {kind!r}")


def cmd_compose(scenario: Scenario, args, rng) -> tuple:
    sec = scenario.section("compose")
    kind = sec.get("kind", "product")
    if kind == "product":
        names = sec.get("mechanisms")
        if not names:
            raise SchemaError("compose.product needs mechanisms")
        names = _expect(names, list, "compose.mechanisms")
        channels = [scenario.mechanism(n) for n in names]
        v = certify_composition(
            channels,
            parse_int(sec.get("k", 1), "compose.k"),
            epsilons=sec.get("epsilons"),
            exp_epsilons=sec.get("exp_epsilons"),
            budget=args.budget,
        )
        return {}, [v], EXIT_PASS
    if kind == "epochs":
        entries = sec.get("epochs")
        if not entries:
            raise SchemaError("compose.epochs needs an epochs list")
        pairs = []
        for e in _expect(entries, list, "compose.epochs"):
            _expect(e, dict, "compose.epochs entry")
            pairs.append(
                (scenario.prior(e.get("prior")), scenario.mechanism(e.get("mechanism")))
            )
        model = EpochModel(tuple(pairs))
        target = sec.get("target", 0)
        verify = sec.get("verify", True)
        if not isinstance(verify, bool):
            raise SchemaError(
                f"compose.verify must be true or false, got {verify!r}")
        rep = epoch_leakage(model, target, args.budget)
        results = {
            "per_epoch": [quantity_dict(q) for q in rep.per_epoch],
            "total": {
                "ratio": to_jsonable(rep.total_ratio),
                "nats": to_jsonable(rep.total_nats),
                "bits": to_jsonable(rep.total_bits),
            },
        }
        if verify:
            direct = direct_epoch_max_mi(model, target, args.budget)
            agree = ratios_agree(rep.total_ratio, direct.ratio)
            results["direct"] = quantity_dict(direct)
            results["additivity_agrees"] = agree
            code = EXIT_PASS if agree else EXIT_VIOLATION
        else:
            code = EXIT_PASS
        return results, [], code
    if kind == "equal_epochs":
        names = sec.get("mechanisms")
        if not names:
            raise SchemaError("compose.equal_epochs needs mechanisms")
        names = _expect(names, list, "compose.mechanisms")
        channels = [scenario.mechanism(n) for n in names]
        prior = scenario.prior(sec.get("prior"))
        out = equal_epoch_reduction(prior, channels, sec.get("target", 0), args.budget)
        results = {
            "via_product_channel": quantity_dict(out["via_product_channel"]),
            "direct_ratio": to_jsonable(out["direct_ratio"]),
            "direct_nats": to_jsonable(out["direct_nats"]),
            "agree": out["agree"],
        }
        return results, [], EXIT_PASS if out["agree"] else EXIT_VIOLATION
    raise SchemaError(f"unknown compose kind {kind!r}")


def cmd_sweep(scenario: Scenario, args, rng) -> tuple:
    sec = scenario.section("sweep")
    over = sec.get("over")
    values = sec.get("values")
    task = sec.get("task")
    if not over or values is None or not isinstance(task, dict):
        raise SchemaError("sweep needs over, values, and a task object")
    if not isinstance(over, str):
        raise SchemaError(f"sweep.over must be a non-empty string, got {over!r}")
    _expect(values, list, "sweep.values")
    command = task.get("command", "bound")
    rows = []
    verdicts = []
    for value in values:
        if command not in ("bound", "certify"):
            raise SchemaError(f"sweep cannot run command {command!r}")
        # Only the task section changes between rows: share everything the
        # scenario has already built.
        sub = copy.copy(scenario)
        sub.raw = {**scenario.raw, command: {**task, over: value}}
        _, vs, _ = COMMANDS[command](sub, args, random.Random(args.seed))
        verdicts.extend(vs)
        rows.append({
            "value": to_jsonable(value),
            "verdicts": [verdict_dict(v) for v in vs],
        })
    return {"over": over, "rows": rows}, verdicts, EXIT_PASS


COMMANDS = {
    "validate": cmd_validate,
    "leakage": cmd_leakage,
    "certify": cmd_certify,
    "bound": cmd_bound,
    "compose": cmd_compose,
    "sweep": cmd_sweep,
}


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
    for name in sorted(COMMANDS):
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
        if args.budget is not None:
            args.budget = parse_int(args.budget, "--budget", positive=True)
        scenario = Scenario(raw, args.budget)
        if args.seed is None:
            args.seed = parse_int(scenario.seed, "seed")
        if args.samples is None:
            args.samples = parse_int(scenario.samples, "samples")
        if args.budget is None:
            args.budget = scenario.budget
        rng = random.Random(args.seed)
        results, verdicts, exit_hint = COMMANDS[args.command](scenario, args, rng)
        report = {
            "schema_version": 1,
            "tool": {"name": "privlens", "version": __version__},
            "command": args.command,
            "scenario": scenario.name,
            "seed": args.seed,
            "samples": args.samples,
            "budget": args.budget,
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
