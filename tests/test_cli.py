import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from privlens.cli import run


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def base_scenario(**extra):
    scn = {
        "name": "cli-fixture",
        "universe": {"n": 2, "alphabet": ["BOT", "a"]},
        "priors": {
            "uniform": {"independent": [["1/2", "1/2"], ["1/2", "1/2"]]},
            "coupled": {
                "blocks": [[0, 1]],
                "tables": [["9/20", "1/20", "1/20", "9/20"]],
            },
        },
        "mechanisms": {
            "geo": {
                "type": "geometric_counting",
                "target_symbol": "a",
                "ratio": "1/3",
            },
            "rr": {"type": "randomized_response", "keep_prob": "1/2"},
        },
        "samples": 200,
    }
    scn.update(extra)
    return scn


def single_record_scenario(**extra):
    scn = {
        "name": "one-record",
        "universe": {"n": 1, "alphabet": ["BOT", "a"]},
        "priors": {"uniform": {"independent": [["1/2", "1/2"]]}},
        "mechanisms": {
            "rr": {"type": "randomized_response", "keep_prob": "1/2"}
        },
    }
    scn.update(extra)
    return scn


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_reports_the_parsed_objects(tmp_path):
    scn = base_scenario(family={"k": 2, "exp_delta": "4/5"})
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["validate", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["scenario"] == "cli-fixture"
    assert rep["results"]["universe"]["individuals"] == 2
    assert rep["results"]["universe"]["pooled_alphabet"] == ["a"]
    assert rep["results"]["membership"]["uniform"]["ok"]
    assert rep["results"]["membership"]["coupled"]["ok"]
    assert "elapsed:" in err
    assert "elapsed:" not in out


def test_validate_flags_a_non_member(tmp_path):
    scn = base_scenario(family={"exp_delta": "1/2"})
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["validate", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    member = rep["results"]["membership"]["coupled"]
    assert not member["ok"]
    assert any("dependence coefficient" in v for v in member["violations"])


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------


def test_leakage_exact_values_survive_json(tmp_path):
    scn = single_record_scenario(
        leakage={"prior": "uniform", "mechanism": "rr"}
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["leakage", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    per = rep["results"]["per_target"]["0"]
    assert per["max_mi"]["ratio"] == "3/2"
    assert per["inferential_eps"]["ratio"] == "3"
    assert abs(per["mi"]["nats"] - 0.13081203594113697) < 1e-12
    assert abs(rep["results"]["output_entropy"]["nats"] - math.log(2)) < 1e-12


def test_leakage_output_is_deterministic(tmp_path):
    scn = base_scenario(leakage={"prior": "coupled", "mechanism": "geo"})
    path = write_scenario(tmp_path, scn)
    runs = [invoke(["leakage", path, "--format", "json"]) for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


def test_leakage_unknown_prior_is_an_input_error(tmp_path):
    scn = base_scenario(leakage={"prior": "nope", "mechanism": "geo"})
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["leakage", path])
    assert code == 4
    assert "unknown prior" in err


def test_leakage_budget_exhaustion_is_exit_three(tmp_path):
    scn = base_scenario(leakage={"prior": "uniform", "mechanism": "geo"})
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["leakage", path, "--budget", "3"])
    assert code == 3
    assert "budget" in err
    assert "4" in err


def test_budget_error_names_the_stage_that_ran_out(tmp_path):
    # Two individuals over {BOT, a}: the one-change pair kernel takes 4 + 16
    # steps, the achievable histograms only 2 + 4.
    scn = base_scenario(
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}
    )
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["certify", path, "--budget", "10"])
    assert code == 3
    assert err.strip() == (
        "error: enumeration budget exceeded in change_histogram_pairs: "
        "20 items against budget 10"
    )


@pytest.mark.parametrize("alphabet, family, count, stage", [
    # Two individuals over {BOT, a}, one change: the pair classes charge
    # their 2 * 1 differing target records times 2 unchanged others.
    (["BOT", "a"], {"k": 1}, 4, "worstcase_sup"),
    # Over {BOT, a, b} with no block limit the pair classes charge 3 * 2 *
    # 3**2 = 54 members; the complement construction then charges its
    # 3 * 2 * 3**3 candidates at once.
    (["BOT", "a", "b"], {"exp_delta": "4/5"}, 162, "worstcase_sup"),
], ids=["pair", "complement"])
def test_extremal_budgets_bite_at_the_candidate_count(
        tmp_path, alphabet, family, count, stage):
    uniform = [[f"1/{len(alphabet)}"] * len(alphabet)] * 2
    scn = base_scenario(
        universe={"n": 2, "alphabet": alphabet},
        priors={"uniform": {"independent": uniform}},
        bound={"kind": "worstcase", "mechanism": "geo", "target": 0,
               "family": family},
        samples=5,
    )
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["bound", path, "--budget", str(count - 1)])
    assert code == 3
    assert err == (f"error: enumeration budget exceeded in {stage}: "
                   f"{count} items against budget {count - 1}\n")
    code, _, err = invoke(["bound", path, "--budget", str(count)])
    assert code in (0, 2)
    assert "budget" not in err


@pytest.mark.parametrize("certify, stage", [
    ({"kind": "necessary_dependence", "exp_delta": "1/2"}, "necessary_pdelta"),
    ({"kind": "sufficient_averaged", "k": 1}, "sufficient_nk"),
], ids=["necessary", "sufficient"])
def test_dependence_scan_budgets_bite_at_the_row_count(tmp_path, certify, stage):
    # Three individuals over {BOT, a, b} and counts 0..3 of a: each scan
    # charges its 27 datasets times 4 outcomes per individual (records times
    # complements, or records times averaged and free cells).
    scn = base_scenario(
        universe={"n": 3, "alphabet": ["BOT", "a", "b"]},
        priors={},
        certify={**certify, "mechanism": "geo", "exp_epsilon": "1000"},
    )
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["certify", path, "--budget", "107"])
    assert code == 3
    assert err == (f"error: enumeration budget exceeded in {stage}: "
                   "108 items against budget 107\n")
    code, _, err = invoke(["certify", path, "--budget", "108"])
    assert code == 0
    assert "budget" not in err


@pytest.mark.parametrize("budget", ["x", 2.5, -1, 0, True, None])
def test_bad_scenario_budget_is_an_input_error(tmp_path, budget):
    scn = base_scenario(
        budget=budget,
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"},
    )
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["certify", path])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: budget must be a positive integer")


@pytest.mark.parametrize("budget", ["x", "2.5", "-1", "0"])
def test_bad_budget_option_is_an_input_error(tmp_path, budget):
    scn = base_scenario(
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}
    )
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["certify", path, "--budget", budget])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: --budget must be a positive integer")


@pytest.mark.parametrize("budget", [1000, 1000.0, "1000"])
def test_integral_scenario_budgets_are_accepted(tmp_path, budget):
    scn = base_scenario(
        budget=budget,
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"},
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["budget"] == 1000


def six_record_scenario(**extra):
    """n=6 over {BOT, a, b}: listing the 28 achievable histograms takes 168
    steps; a geometric, a randomized-response and a matrix mechanism."""
    from privlens.universe import BOT, uniform_universe

    u = uniform_universe(6, (BOT, "a", "b"))
    scn = base_scenario(universe={"n": 6, "alphabet": ["BOT", "a", "b"]})
    del scn["priors"]
    scn["mechanisms"]["matrix"] = {
        "type": "matrix", "outcomes": [0, 1],
        "rows": {u.histogram_key(h): ["1/3", "2/3"]
                 for h in u.achievable_histograms()},
    }
    scn.update(extra)
    return scn


@pytest.mark.parametrize("command, section", [
    ("certify", {"kind": "k_change", "mechanism": "geo", "k": 1,
                 "exp_epsilon": "3"}),
    ("certify", {"kind": "k_change", "mechanism": "rr", "k": 1,
                 "exp_epsilon": "1000"}),
    ("certify", {"kind": "k_change", "mechanism": "matrix", "k": 1,
                 "exp_epsilon": "1"}),
    ("compose", {"kind": "product", "mechanisms": ["geo", "rr", "matrix"],
                 "k": 1, "exp_epsilons": ["3", "1000", "1"]}),
], ids=["geometric", "randomized_response", "matrix", "product"])
def test_budget_reaches_channel_construction(tmp_path, monkeypatch, command,
                                             section):
    # The default budget is lowered below the 168 steps of the achievable
    # histograms' listing, so only a --budget that reaches every builder,
    # the channel check and the product channel lets the request run; one
    # step short of the listing, above the lowered default, stops it.
    from privlens import universe

    path = write_scenario(tmp_path, six_record_scenario(**{command: section}))
    monkeypatch.setattr(universe, "DEFAULT_ENUMERATION_BUDGET", 50)
    code, out, err = invoke([command, path, "--budget", "100000",
                             "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["verdicts"][0]["satisfied"]
    code, _, err = invoke([command, path, "--budget", "167"])
    assert (code, err) == (3, "error: enumeration budget exceeded in "
                              "achievable_histograms: 168 items against "
                              "budget 167\n")


def test_python_dash_m_runs_the_cli(tmp_path):
    scn = base_scenario(
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}
    )
    path = write_scenario(tmp_path, scn)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "privlens", "certify", path, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    _, direct, _ = invoke(["certify", path, "--format", "json"])
    assert proc.stdout == direct


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_passes_at_the_exact_level(tmp_path):
    scn = base_scenario(
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    v = rep["verdicts"][0]
    assert v["measured"]["ratio"] == "3"
    assert v["satisfied"] and v["conclusive"]


def test_certify_refutes_below_the_level(tmp_path):
    scn = base_scenario(
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "2"}
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "table"])
    assert code == 1
    assert "VIOLATED" in out


def test_certify_necessary_dependence_uses_the_scenario_family(tmp_path):
    scn = base_scenario(
        family={"exp_delta": "1"},
        certify={
            "kind": "necessary_dependence",
            "mechanism": "geo",
            "exp_epsilon": "3",
        },
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"][0]["measured"]["ratio"] == "3"


def test_certify_sufficient_averaged_heuristic_is_inconclusive(tmp_path):
    scn = {
        "name": "averaged",
        "universe": {"n": 3, "alphabet": ["BOT", "a"]},
        "mechanisms": {
            "geo": {
                "type": "geometric_counting",
                "target_symbol": "a",
                "ratio": "1/3",
            }
        },
        "certify": {
            "kind": "sufficient_averaged",
            "mechanism": "geo",
            "k": 1,
            "tau": 0.1,
            "exp_epsilon": "1000",
        },
    }
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "json"])
    assert code == 2
    rep = json.loads(out)
    v = rep["verdicts"][0]
    assert v["satisfied"]
    assert not v["conclusive"]


def test_certify_group_chain(tmp_path):
    scn = base_scenario(
        certify={
            "kind": "group",
            "mechanism": "geo",
            "k": 1,
            "group": [0, 1],
            "exp_epsilon": "3",
        },
        samples=50,
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    v = rep["verdicts"][0]
    assert v["satisfied"]
    assert v["details"]["bound_group"] == "9"


def test_certify_personalized(tmp_path):
    scn = single_record_scenario(
        certify={
            "kind": "personalized",
            "mechanism": "rr",
            "prior": "uniform",
            "epsilons": [0.01],
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path, "--format", "json"])
    assert code == 1
    rep = json.loads(out)
    rows = rep["verdicts"][0]["details"]["per_individual"]
    assert rows[0]["satisfied"] is False


def test_certify_unknown_kind_is_an_input_error(tmp_path):
    scn = base_scenario(certify={"kind": "wat", "mechanism": "geo"})
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["certify", path])
    assert code == 4
    assert "unknown certify kind" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def interpolated_scenario(**overrides):
    sec = {
        "kind": "interpolated",
        "mechanism": "geo",
        "k": 2,
        "exp_eps_step": "3",
        "exp_delta": "1/2",
    }
    sec.update(overrides)
    return base_scenario(bound=sec)


def test_bound_interpolated_fixture(tmp_path):
    path = write_scenario(tmp_path, interpolated_scenario())
    code, out, _ = invoke(["bound", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    v = rep["verdicts"][0]
    assert v["bound"]["ratio"] == "6"
    assert v["satisfied"] and v["conclusive"]
    measured = Fraction(v["measured"]["ratio"])
    assert Fraction(3) < measured <= Fraction(6)


def test_threads_env_is_ignored(tmp_path, monkeypatch):
    # Sampling is serial; the old thread-count variable is no longer read.
    path = write_scenario(tmp_path, interpolated_scenario())
    monkeypatch.delenv("PRIVLENS_THREADS", raising=False)
    plain = invoke(["bound", path, "--format", "json"])
    monkeypatch.setenv("PRIVLENS_THREADS", "soup")
    env_run = invoke(["bound", path, "--format", "json"])
    assert env_run[0] == plain[0] == 0
    assert env_run[1] == plain[1]


def test_bound_worstcase_with_level(tmp_path):
    scn = base_scenario(
        bound={
            "kind": "worstcase",
            "mechanism": "geo",
            "target": 0,
            "family": {"k": 1},
            "exp_epsilon": "3.0000001",
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["bound", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["sup"]["conclusive"]
    assert rep["verdicts"][0]["satisfied"]


def test_bound_worstcase_without_admissible_extremal_is_inconclusive(tmp_path):
    # A band constraint excludes every near-point-mass construction, so only
    # sampling remains and the sup cannot be conclusive.
    scn = base_scenario(
        bound={
            "kind": "worstcase",
            "mechanism": "geo",
            "target": 0,
            "family": {"k": 1, "ell": 2, "tau": 0.0},
        },
        samples=50,
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["bound", path, "--format", "json"])
    assert code == 2
    rep = json.loads(out)
    sup = rep["results"]["sup"]
    assert not sup["conclusive"]
    assert sup["evaluated"]["extremal"] == 0
    assert sup["evaluated"]["sampled"] == 50


def test_bound_worstcase_measures_members_with_an_underflowed_band_mass(
        tmp_path):
    # At tau = 400 a band marginal drawn as normalized exp(uniform(-tau,
    # tau)) can underflow to a zero mass: still a family member.
    scn = base_scenario(
        bound={
            "kind": "worstcase",
            "mechanism": "geo",
            "target": 0,
            "family": {"k": 1, "ell": 2, "tau": 400},
        },
        samples=300,
    )
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["bound", path, "--format", "json"])
    assert code in (0, 2), err
    assert json.loads(out)["results"]["sup"]["evaluated"]["sampled"] == 300


def test_bound_tightness(tmp_path):
    scn = base_scenario(bound={"kind": "tightness", "mechanism": "geo", "k": 2})
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["bound", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    t = rep["results"]["tightness"]
    assert t["attained"]
    assert t["scan_ratio"] == "9"


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_product(tmp_path):
    scn = base_scenario(
        compose={
            "kind": "product",
            "mechanisms": ["geo", "rr"],
            "k": 1,
            "exp_epsilons": ["3", "3"],
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["compose", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    v = rep["verdicts"][0]
    assert v["satisfied"]
    assert v["bound"]["ratio"] == "9"


def test_compose_epochs_additivity(tmp_path):
    scn = single_record_scenario(
        compose={
            "kind": "epochs",
            "epochs": [
                {"prior": "uniform", "mechanism": "rr"},
                {"prior": "uniform", "mechanism": "rr"},
            ],
            "target": 0,
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["compose", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["total"]["ratio"] == "9/4"
    assert rep["results"]["direct"]["ratio"] == "9/4"
    assert rep["results"]["additivity_agrees"] is True


def test_compose_epochs_total_beyond_the_float_range_is_unbounded(
        tmp_path):
    # The exact first epoch's ratio is 10^400; times the float ratio of the
    # second it reads as inf instead of overflowing.
    big = 10**400
    scn = single_record_scenario(
        priors={"skew": {"independent": [[f"{big - 1}/{big}", f"1/{big}"]]}},
        mechanisms={
            "rr": {"type": "randomized_response", "keep_prob": "1"},
            "geo": {"type": "geometric_counting", "target_symbol": "a",
                    "ratio": 0.5},
        },
        compose={
            "kind": "epochs",
            "epochs": [
                {"prior": "skew", "mechanism": "rr"},
                {"prior": "skew", "mechanism": "geo"},
            ],
            "target": 0,
        },
    )
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["compose", path, "--format", "json"])
    assert code in (0, 1), err
    assert json.loads(out)["results"]["total"]["ratio"] == "inf"


def test_compose_equal_epochs(tmp_path):
    scn = single_record_scenario(
        compose={
            "kind": "equal_epochs",
            "prior": "uniform",
            "mechanisms": ["rr", "rr"],
            "target": 0,
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["compose", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["direct_ratio"] == "9/5"
    assert rep["results"]["agree"] is True


def _compose_error(tmp_path, compose):
    scn = base_scenario(compose=compose)
    code, out, err = invoke(["compose", write_scenario(tmp_path, scn)])
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("value", [2.5, -1, True])
@pytest.mark.parametrize("kind", ["product", "equal_epochs"])
def test_compose_mechanisms_must_be_a_list(tmp_path, kind, value):
    section = {"kind": kind, "mechanisms": value, "prior": "uniform",
               "exp_epsilons": ["3", "3"]}
    err = _compose_error(tmp_path, section)
    assert err == f"error: compose.mechanisms must be a list, got {value!r}\n"


@pytest.mark.parametrize("value", [4, 0, 2.5, True, "4"])
def test_compose_exp_epsilons_must_be_a_list(tmp_path, value):
    # A string is not read as a list of its characters, as epsilons is not.
    section = {"kind": "product", "mechanisms": ["geo"], "exp_epsilons": value}
    err = _compose_error(tmp_path, section)
    assert err == f"error: exp_epsilons must be a list, got {value!r}\n"
    section = {"kind": "product", "mechanisms": ["geo"], "epsilons": value}
    err = _compose_error(tmp_path, section)
    assert err == f"error: epsilons must be a list, got {value!r}\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_over_exp_delta(tmp_path):
    scn = base_scenario(
        sweep={
            "over": "exp_delta",
            "values": ["0", "1/4", "1/2", "1"],
            "task": {
                "command": "bound",
                "kind": "interpolated",
                "mechanism": "geo",
                "k": 2,
                "exp_eps_step": "3",
            },
        },
        samples=50,
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["sweep", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    rows = rep["results"]["rows"]
    assert [r["verdicts"][0]["bound"]["ratio"] for r in rows] == [
        "3",
        "9/2",
        "6",
        "9",
    ]
    assert all(r["verdicts"][0]["satisfied"] for r in rows)


def test_sweep_builds_its_channel_once(tmp_path, monkeypatch):
    import privlens.cli as cli

    built = []
    real = cli.build_mechanism
    monkeypatch.setattr(cli, "build_mechanism",
                        lambda u, raw, budget: built.append(raw)
                        or real(u, raw, budget))
    task = {"command": "certify", "kind": "necessary_dependence",
            "mechanism": "geo", "exp_epsilon": "9"}
    values = ["0", "1/2", "1"]
    mechanisms = {"geo": base_scenario()["mechanisms"]["geo"]}
    scn = base_scenario(mechanisms=mechanisms, sweep={
        "over": "exp_delta", "values": values, "task": task})
    code, out, _ = invoke(["sweep", write_scenario(tmp_path, scn), "--format",
                           "json"])
    assert code == 0
    assert len(built) == 1
    # Each row reports what certify reports for its value alone.
    rows = json.loads(out)["results"]["rows"]
    assert [r["value"] for r in rows] == values
    for i, (value, row) in enumerate(zip(values, rows)):
        alone = base_scenario(mechanisms=mechanisms,
                              certify={**task, "exp_delta": value})
        code, out, _ = invoke(["certify", write_scenario(
            tmp_path, alone, name=f"alone{i}.json"), "--format", "json"])
        assert code == 0
        assert row["verdicts"] == json.loads(out)["verdicts"]


@pytest.mark.parametrize("values", [["1"], []], ids=["values", "no-values"])
def test_sweep_rejects_a_command_it_cannot_run(tmp_path, values):
    # The command is read before the first row, so a sweep without rows
    # rejects it too.
    scn = base_scenario(sweep={"over": "k", "values": values,
                               "task": {"command": "leakage"}})
    assert invoke(["sweep", write_scenario(tmp_path, scn)]) == (
        4, "", "error: sweep cannot run command 'leakage'\n")


@pytest.mark.parametrize("over", [["k"], 2], ids=["list", "int"])
def test_sweep_over_must_be_a_string(tmp_path, over):
    scn = base_scenario(sweep={"over": over, "values": ["1"],
                               "task": {"command": "bound",
                                        "kind": "interpolated",
                                        "mechanism": "geo", "k": 2,
                                        "exp_eps_step": "3"}})
    code, out, err = invoke(["sweep", write_scenario(tmp_path, scn)])
    assert code == 4
    assert out == ""
    assert err.split("elapsed")[0] == (
        f"error: sweep.over must be a non-empty string, got {over!r}\n")


def test_sweep_reads_every_row_before_running_any(tmp_path):
    # Row 1 alone charges 90 neighbour pairs, beyond --budget 50; row 2 is
    # malformed, and an input error wins over the budget.
    scn = base_scenario(
        universe={"n": 6, "alphabet": ["BOT", "a", "b"]}, priors={},
        sweep={"over": "k", "values": [1, "x"],
               "task": {"command": "certify", "kind": "k_change",
                        "mechanism": "geo", "exp_epsilon": 3}})
    path = write_scenario(tmp_path, scn)
    want = (4, "", "error: certify.k must be an integer, got 'x'\n")
    assert invoke(["sweep", path, "--budget", "50"]) == want
    assert invoke(["sweep", path]) == want
    scn["sweep"]["values"] = [1]
    assert invoke(["sweep", write_scenario(tmp_path, scn), "--budget",
                   "50"]) == (3, "", "error: enumeration budget exceeded in "
                              "change_histogram_pairs: 90 items against "
                              "budget 50\n")


def test_sweep_rows_keep_their_results_and_the_worst_exit_hint(tmp_path):
    # A tightness row has results and no verdicts; the row on m is not
    # attained (exit 1 alone), the one on geo is (exit 0 alone).
    mechanisms = {**base_scenario()["mechanisms"], "m": {
        "type": "matrix", "outcomes": ["x", "y"], "rows": {
            "0": [f"1/{10**400}", f"{10**400 - 1}/{10**400}"],
            "1": ["1/2", "1/2"], "2": ["1/2", "1/2"]}}}
    task = {"kind": "tightness", "k": 1}
    scn = base_scenario(mechanisms=mechanisms, sweep={
        "over": "mechanism", "values": ["m", "geo"],
        "task": {"command": "bound", **task}})
    code, out, _ = invoke(["sweep", write_scenario(tmp_path, scn), "--format",
                           "json"])
    assert code == 1
    rows = json.loads(out)["results"]["rows"]
    for name, want_code, row in zip(("m", "geo"), (1, 0), rows):
        alone = base_scenario(mechanisms=mechanisms,
                              bound={**task, "mechanism": name})
        code, out, _ = invoke(["bound", write_scenario(
            tmp_path, alone, name=f"{name}.json"), "--format", "json"])
        assert code == want_code
        assert row == {"value": name, "verdicts": [],
                       "results": json.loads(out)["results"]}
    # A row of verdicts alone has no results key, as before.
    scn = base_scenario(sweep={"over": "k", "values": [1], "task": {
        "command": "certify", "mechanism": "geo", "exp_epsilon": 3}})
    code, out, _ = invoke(["sweep", write_scenario(tmp_path, scn), "--format",
                           "json"])
    assert code == 0
    assert list(json.loads(out)["results"]["rows"][0]) == ["value", "verdicts"]


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def test_missing_file_and_bad_json_are_input_errors(tmp_path):
    code, _, err = invoke(["validate", str(tmp_path / "absent.json")])
    assert code == 4
    assert "not found" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = invoke(["validate", str(bad)])
    assert code == 4
    assert "not valid JSON" in err


def test_missing_section_is_an_input_error(tmp_path):
    path = write_scenario(tmp_path, base_scenario())
    code, _, err = invoke(["leakage", path])
    assert code == 4
    assert "no 'leakage' section" in err


def test_malformed_prior_is_an_input_error(tmp_path):
    scn = base_scenario()
    scn["priors"]["broken"] = {"independent": [["1/2", "1/3"], ["1/2", "1/2"]]}
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["validate", path])
    assert code == 4
    assert "sums to" in err


def test_bad_delta_string_is_an_input_error(tmp_path):
    scn = base_scenario(family={"delta": "very private"})
    path = write_scenario(tmp_path, scn)
    code, _, err = invoke(["validate", path])
    assert code == 4
    assert "bad delta" in err


def test_minus_inf_delta_means_independence(tmp_path):
    scn = base_scenario(family={"delta": "-inf"})
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["validate", path, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["family"]["exp_delta"] == 0.0
    assert not rep["results"]["membership"]["coupled"]["ok"]


K_CHANGE = {"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}


@pytest.mark.parametrize(
    "command, patch",
    [
        ("validate", {"universe": {"n": "x", "alphabet": ["BOT", "a"]}}),
        ("certify", {"certify": dict(K_CHANGE, k="x")}),
        ("certify", {"certify": dict(K_CHANGE, k=2.5)}),
        ("certify", {"seed": "x", "certify": K_CHANGE}),
        ("certify", {"samples": "x", "certify": K_CHANGE}),
        ("validate", {"family": {"k": "x"}}),
        (
            "certify",
            {"certify": {"kind": "k_change", "mechanism": "geo", "epsilon": "abc"}},
        ),
        (
            "bound",
            {"bound": {"kind": "worstcase", "mechanism": "geo", "target": "x",
                       "family": {"k": 1}}},
        ),
        (
            "leakage",
            {"leakage": {"prior": "uniform", "mechanism": "geo",
                         "targets": [[0, "x"]]}},
        ),
    ],
    ids=[
        "universe.n=x",
        "certify.k=x",
        "certify.k=2.5",
        "seed=x",
        "samples=x",
        "family.k=x",
        "certify.epsilon=abc",
        "bound.target=x",
        "leakage.targets=[[0,x]]",
    ],
)
def test_malformed_numbers_are_input_errors(tmp_path, command, patch):
    path = write_scenario(tmp_path, base_scenario(**patch))
    code, out, err = invoke([command, path])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ")


def test_table_format_smoke(tmp_path):
    scn = base_scenario(
        certify={"kind": "k_change", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["certify", path])
    assert code == 0
    assert "privlens certify" in out
    assert "SATISFIED" in out
    assert "measured ratio 3" in out


PERSONALIZED = {"kind": "personalized", "mechanism": "geo", "prior": "uniform"}
AVERAGED = {"kind": "sufficient_averaged", "mechanism": "geo", "k": 1,
            "epsilon": 1}


@pytest.mark.parametrize(
    "command,patch",
    [
        ("compose", {"compose": {"kind": "product", "mechanisms": ["geo", "rr"],
                                 "k": 1, "epsilons": ["abc", "1"]}}),
        ("certify", {"certify": {**PERSONALIZED, "epsilons": ["abc", "1"]}}),
        ("certify", {"certify": {**PERSONALIZED,
                                 "epsilons": {"0": "abc", "1": "1"}}}),
        ("certify", {"certify": {**AVERAGED, "tau": "x"}}),
        ("certify", {"certify": {**AVERAGED, "marginals": {"x": {}}}}),
        ("validate", {"family": {"tau": "x"}}),
        ("validate", {"family": {"delta": [1]}}),
        ("validate", {"mechanisms": {"g": {
            "type": "geometric_counting", "target_symbol": "a",
            "epsilon": "x"}}}),
        ("validate", {"mechanisms": {"g": {
            "type": "geometric_counting", "target_symbol": "a",
            "ratio": "1/3", "max_count": "x"}}}),
    ],
    ids=[
        "compose.epsilons=[abc,1]",
        "personalized.epsilons=[abc,1]",
        "personalized.epsilons={0:abc}",
        "sufficient_averaged.tau=x",
        "sufficient_averaged.marginals={x:{}}",
        "family.tau=x",
        "family.delta=[1]",
        "geometric.epsilon=x",
        "geometric.max_count=x",
    ],
)
def test_non_numeric_values_are_input_errors(tmp_path, command, patch):
    path = write_scenario(tmp_path, base_scenario(**patch))
    code, out, err = invoke([command, path])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ")


GROUP = {"kind": "group", "mechanism": "geo", "k": 1, "exp_epsilon": "3"}
WORSTCASE = {"kind": "worstcase", "mechanism": "geo", "family": {"k": 1}}
LEAKAGE = {"prior": "uniform", "mechanism": "geo"}
EPOCHS = {"kind": "epochs", "epochs": [{"prior": "uniform", "mechanism": "geo"}]}


@pytest.mark.parametrize(
    "command, patch",
    [
        ("certify", {"certify": {**K_CHANGE, "exp_epsilon": None,
                                 "epsilon": True}}),
        ("certify", {"certify": {**AVERAGED, "epsilon": True}}),
        ("certify", {"certify": {**PERSONALIZED, "epsilons": [True, 1]}}),
        ("certify", {"certify": {**PERSONALIZED,
                                 "epsilons": {"0": 1, "1": True}}}),
        ("certify", {"certify": {**GROUP, "group": True}}),
        ("certify", {"certify": {**GROUP, "group": [0, False]}}),
        ("leakage", {"leakage": {**LEAKAGE, "targets": True}}),
        ("leakage", {"leakage": {**LEAKAGE, "targets": [True]}}),
        ("leakage", {"leakage": {**LEAKAGE, "targets": [[0, True]]}}),
        ("bound", {"bound": {**WORSTCASE, "target": True}}),
        ("bound", {"bound": {"kind": "interpolated", "mechanism": "geo",
                             "exp_delta": "1/2", "exp_eps_step": "3",
                             "target": True}}),
        ("compose", {"compose": {**EPOCHS, "target": True}}),
        ("compose", {"compose": {"kind": "equal_epochs", "prior": "uniform",
                                 "mechanisms": ["geo"], "target": True}}),
        ("validate", {"family": {"exp_delta": True}}),
        ("validate", {"family": {"delta": False}}),
    ],
    ids=[
        "k_change.epsilon=true",
        "sufficient_averaged.epsilon=true",
        "personalized.epsilons=[true,1]",
        "personalized.epsilons={1:true}",
        "group.group=true",
        "group.group=[0,false]",
        "leakage.targets=true",
        "leakage.targets=[true]",
        "leakage.targets=[[0,true]]",
        "worstcase.target=true",
        "interpolated.target=true",
        "epochs.target=true",
        "equal_epochs.target=true",
        "family.exp_delta=true",
        "family.delta=false",
    ],
)
def test_booleans_are_not_numbers(tmp_path, command, patch):
    # JSON true and false are Python bools, which are ints; none of these
    # fields may read them as 1 or 0.
    path = write_scenario(tmp_path, base_scenario(**patch))
    code, out, err = invoke([command, path])
    assert (code, out) == (4, ""), err
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert "True" in err or "False" in err


def test_huge_composition_level_is_unbounded(tmp_path):
    # exp(1000) overflows a float; the level then bounds nothing.
    scn = base_scenario(compose={"kind": "product", "mechanisms": ["geo", "rr"],
                                 "k": 1, "epsilons": [1000, 1]})
    code, out, err = invoke(["compose", write_scenario(tmp_path, scn),
                             "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["verdicts"][0]["bound"]["ratio"] == "inf"


def test_malformed_structures_are_input_errors(tmp_path):
    probes = [
        ("validate", "priors",
         {"priors": [{"independent": [["1/2", "1/2"]] * 2}]}),
        ("validate", "mechanisms",
         {"mechanisms": [{"type": "randomized_response", "keep_prob": "1/2"}]}),
        ("validate", "universe.alphabet",
         {"universe": {"n": 2, "alphabet": 5}}),
        ("validate", "prior.tables",
         {"priors": {"p": {"blocks": [[0, 1]], "tables": 5}}}),
        ("validate", "prior.blocks",
         {"priors": {"p": {"blocks": "ab", "tables": [[1]]}}}),
        ("validate", "matrix rows",
         {"mechanisms": {"m": {"type": "matrix", "outcomes": ["x"],
                               "rows": [["1"], ["1"]]}}}),
        ("compose", "compose.epochs entry",
         {"compose": {"kind": "epochs", "epochs": [1, 2]}}),
        ("sweep", "sweep.values",
         {"sweep": {"over": "k", "values": 5,
                    "task": {"kind": "tightness", "mechanism": "geo"}}}),
    ]
    for command, what, patch in probes:
        path = write_scenario(tmp_path, base_scenario(**patch))
        code, out, err = invoke([command, path])
        assert code == 4, what
        assert out == ""
        assert err.count("\n") == 1, what
        assert err.startswith(f"error: {what} must be "), err


@pytest.mark.parametrize("name", [[], ["geo"], {}, {"geo": 1}],
                         ids=["[]", "[geo]", "{}", "{geo:1}"])
@pytest.mark.parametrize(
    "command, section, field",
    [
        ("leakage", {"prior": "coupled", "mechanism": "geo"}, "prior"),
        ("leakage", {"prior": "coupled", "mechanism": "geo"}, "mechanism"),
        ("certify", K_CHANGE, "mechanism"),
    ],
    ids=["leakage.prior", "leakage.mechanism", "certify.mechanism"],
)
def test_non_string_names_are_input_errors(tmp_path, command, section, field,
                                           name):
    scn = base_scenario(**{command: dict(section, **{field: name})})
    code, out, err = invoke([command, write_scenario(tmp_path, scn)])
    assert code == 4
    assert out == ""
    assert err == f"error: unknown {field} {name!r}\n"


@pytest.mark.parametrize("option", [[], ["--budget", "1000"]],
                         ids=["scenario", "--budget"])
def test_huge_universe_is_charged_to_the_budget(tmp_path, option):
    # 10**20 individuals: stopped before any per-individual work.
    scn = base_scenario(universe={"n": 10**20, "alphabet": ["BOT", "a"]},
                        budget=10**9)
    code, out, err = invoke(["validate", write_scenario(tmp_path, scn)]
                            + option)
    budget = 1000 if option else 10**9
    assert code == 3
    assert out == ""
    assert err == (
        "error: enumeration budget exceeded in uniform_universe: "
        f"{10**20} items against budget {budget}\n"
    )


def test_huge_interpolated_k_is_charged_to_the_budget(tmp_path):
    # An exact step**k with k = 10**20 would never finish.
    path = write_scenario(tmp_path, interpolated_scenario(k=10**20))
    code, out, err = invoke(["bound", path])
    assert code == 3
    assert out == ""
    assert err == (
        "error: enumeration budget exceeded in interpolated_bound: "
        f"{10**20} items against budget 10000000\n"
    )



@pytest.mark.parametrize("bad, message", [
    ({"exp_delta": "nope"}, "nope"),
    ({"exp_eps_step": "nope"}, "nope"),
    ({"exp_eps_step": None, "epsilon": "x"}, "epsilon must be a number"),
    ({"target": "x"}, "target must be an individual index"),
    ({"target": 7}, "target 7 out of range for n=2"),
], ids=["exp_delta", "exp_eps_step", "epsilon", "target=x", "target=7"])
def test_interpolated_inputs_are_read_before_k_is_charged(
        tmp_path, bad, message):
    # Input errors win over budget errors: k = 50 exceeds the budget of 10.
    path = write_scenario(tmp_path, interpolated_scenario(k=50, **bad))
    code, out, err = invoke(["bound", path, "--budget", "10"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "budget" not in err


@pytest.mark.parametrize("k, message", [
    (0, "k must be at least 1"),
    (None, "bound.k must be an integer, got None"),
], ids=["zero", "null"])
def test_interpolated_k_of_zero_or_null_is_an_input_error(tmp_path, k,
                                                          message):
    # A given k is read as it stands, not replaced by the default of 1.
    path = write_scenario(tmp_path, interpolated_scenario(k=k))
    code, out, err = invoke(["bound", path, "--format", "json"])
    assert code == 4
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("family, k", [(None, 1), ({"k": 2}, 2)],
                         ids=["no_family", "family_k"])
def test_interpolated_k_defaults_to_the_family_block_limit(tmp_path, family,
                                                           k):
    scn = interpolated_scenario()
    del scn["bound"]["k"]
    if family is not None:
        scn["family"] = family
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["bound", path, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["verdicts"][0]["params"]["k"] == k


def worstcase_level_scenario(**level):
    # Three individuals over {BOT, a, b} with k = 3: the pair classes alone
    # charge 3 * 2 * 9**2 = 486 members.
    return base_scenario(
        universe={"n": 3, "alphabet": ["BOT", "a", "b"]},
        priors={"uniform": {"independent": [["1/3"] * 3] * 3}},
        bound={"kind": "worstcase", "mechanism": "geo", "target": 0,
               "family": {"k": 3}, **level},
        samples=5,
    )


PRODUCT = {"kind": "product", "mechanisms": ["geo", "rr"], "k": 1}
STEP = {"kind": "interpolated", "mechanism": "geo", "k": 3,
        "exp_delta": "1/2"}


# Each malformed level next to a well-formed one in the same section. Under
# --budget 2 the well-formed section exits 3 at its first budgeted stage (a
# k=1 scan charges 4 steps, the interpolated bound charges k = 3), so the
# malformed one shows that its level is read before any budgeted work.
@pytest.mark.parametrize("command, section, bad, good", [
    ("certify", K_CHANGE, {"exp_epsilon": None, "epsilon": math.nan},
     {"exp_epsilon": None, "epsilon": 1}),
    ("certify", PERSONALIZED, {"epsilons": [1, math.nan]},
     {"epsilons": [1, 1]}),
    ("compose", PRODUCT, {"epsilons": [math.nan, 1]}, {"epsilons": [1, 1]}),
    ("compose", PRODUCT, {"exp_epsilons": [0, 3]}, {"exp_epsilons": [3, 3]}),
    ("compose", PRODUCT, {"exp_epsilons": [None, 3]},
     {"exp_epsilons": [3, 3]}),
    ("bound", STEP, {"exp_eps_step": "3", "epsilon": 2},
     {"exp_eps_step": "3"}),
    ("bound", STEP, {"exp_eps_step": 0}, {"exp_eps_step": "3"}),
], ids=["k_change.epsilon=nan", "personalized.epsilons=nan",
        "product.epsilons=nan", "product.exp_epsilons=0",
        "product.exp_epsilons=null",
        "interpolated.both", "interpolated.exp_eps_step=0"])
def test_malformed_levels_exit_4_before_any_budgeted_work(
        tmp_path, command, section, bad, good):
    good_path = write_scenario(
        tmp_path, base_scenario(**{command: {**section, **good}}), "good.json")
    assert invoke([command, good_path, "--budget", "2"])[0] == 3
    path = write_scenario(tmp_path,
                          base_scenario(**{command: {**section, **bad}}))
    for options in ([], ["--budget", "2"]):
        code, out, err = invoke([command, path, *options])
        assert (code, out) == (4, ""), (options, err)
        assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_geometric_max_count_is_charged_to_the_budget(tmp_path):
    # Three counts at n=2, each row 10**6 - 2 integers beyond the largest
    # count, of about 10**6 digits: the charge trips before the rows are
    # built.
    scn = base_scenario(mechanisms={"g": {
        "type": "geometric_counting", "target_symbol": "a", "ratio": "1/3",
        "max_count": 10**6}})
    assert invoke(["validate", write_scenario(tmp_path, scn)]) == (
        3, "", "error: enumeration budget exceeded in "
        f"geometric_counting_channel: {3 * (10**6 - 2) * (10**6 + 1)} items "
        "against budget 10000000\n")


def test_geometric_rows_up_to_the_largest_count_are_not_charged(tmp_path):
    # At n=220 the default rows hold about 221**3 digits, beyond the default
    # budget; they grow with the universe, so only a larger max_count is
    # charged.
    geo = base_scenario()["mechanisms"]["geo"]
    scn = base_scenario(universe={"n": 220, "alphabet": ["BOT", "a"]},
                        priors={}, mechanisms={"geo": geo}, certify=K_CHANGE)
    path = write_scenario(tmp_path, scn)
    assert invoke(["certify", path])[0] == 0
    geo["max_count"] = 221
    path = write_scenario(tmp_path, scn)
    assert invoke(["certify", path])[0] == 0


def test_geometric_max_count_is_charged_to_the_scenario_budget(tmp_path):
    # --budget bounds the build as it bounds every other stage: at n=2 a
    # max_count of 40 charges 3 * 38 * 41 = 4674, and at n=3 one of 3000
    # charges 4 * 2997 * 3001, beyond the default budget.
    scn = base_scenario(mechanisms={"g": {
        "type": "geometric_counting", "target_symbol": "a", "ratio": "1/3",
        "max_count": 40}})
    path = write_scenario(tmp_path, scn)
    assert invoke(["validate", path])[0] == 0
    assert invoke(["validate", path, "--budget", "100"]) == (
        3, "", "error: enumeration budget exceeded in "
        "geometric_counting_channel: 4674 items against budget 100\n")
    scn["universe"]["n"] = 3
    scn["priors"] = {}
    scn["mechanisms"]["g"]["max_count"] = 3000
    path = write_scenario(tmp_path, scn)
    assert invoke(["validate", path])[0] == 3
    code, out, _ = invoke(["validate", path, "--budget", "100000000"])
    assert code == 0


def test_tightness_listing_is_charged_to_the_budget(tmp_path):
    # n=16, individual 0 over {BOT, a, b} and the rest over {BOT, a}. The
    # k=1 scan charges 4749 steps; its witness is a=8 against a=8,b=1,
    # which needs BOT at individual 0, so tightness walks the C(15, 7) =
    # 6435 realizations of a=8 that start with "a" first. It charges 288
    # suffix steps and 6436 tried realizations, and lists none of them.
    rows = {f"{a},{b}": ["2/3", "1/3"] if (a, b) == (8, 0) else
            ["1/3", "2/3"] if (a, b) == (8, 1) else ["1/2", "1/2"]
            for a in range(17) for b in range(2)}
    del rows["16,1"]
    scn = base_scenario(
        universe={"alphabets": [["BOT", "a", "b"]] + [["BOT", "a"]] * 15},
        priors={},
        mechanisms={"m": {"type": "matrix", "outcomes": ["x", "y"],
                          "rows": rows}},
        bound={"kind": "tightness", "mechanism": "m", "k": 1})
    path = write_scenario(tmp_path, scn)
    assert invoke(["bound", path, "--budget", "6723"]) == (
        3, "", "error: enumeration budget exceeded in "
        "tightness_pk: 6724 items against budget 6723\n")
    code, out, _ = invoke(["bound", path, "--budget", "6724", "--format",
                           "json"])
    assert code == 0
    prior = json.loads(out)["results"]["tightness"]["prior"]
    assert prior["numerator_sequence"] == ["⊥"] + ["a"] * 8 + ["⊥"] * 7
    assert prior["denominator_sequence"] == ["b"] + ["a"] * 8 + ["⊥"] * 7


def test_worstcase_level_is_read_before_the_search(tmp_path):
    path = write_scenario(tmp_path, worstcase_level_scenario(epsilon="x"))
    code, out, err = invoke(["bound", path, "--budget", "200"])
    assert code == 4
    assert out == ""
    assert err == "error: epsilon must be a number, got 'x'\n"
    path = write_scenario(tmp_path, worstcase_level_scenario(epsilon="1"))
    code, _, err = invoke(["bound", path, "--budget", "200"])
    assert code == 3
    assert "worstcase_sup: 486 items" in err


@pytest.mark.parametrize("verify", ["false", 0, 1, None, [True]])
def test_compose_epochs_verify_must_be_a_boolean(tmp_path, verify):
    scn = single_record_scenario(
        compose={
            "kind": "epochs",
            "epochs": [{"prior": "uniform", "mechanism": "rr"}],
            "verify": verify,
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, err = invoke(["compose", path])
    assert code == 4
    assert out == ""
    assert err == ("error: compose.verify must be true or false, got "
                   f"{verify!r}\n")


def test_compose_epochs_verify_false_skips_the_direct_pass(tmp_path):
    scn = single_record_scenario(
        compose={
            "kind": "epochs",
            "epochs": [{"prior": "uniform", "mechanism": "rr"}],
            "verify": False,
        }
    )
    path = write_scenario(tmp_path, scn)
    code, out, _ = invoke(["compose", path, "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert "direct" not in results and "additivity_agrees" not in results


def test_marginals_read_bot_as_the_empty_record(tmp_path):
    # "BOT" names the empty record in marginals as everywhere else.
    reports = []
    for bot in ("BOT", "⊥"):
        scn = base_scenario(**N3, certify={**AVERAGED, "tau": 1, "marginals": {
            "0": {bot: "1/2", "a": "1/2"}, "2": {bot: "2/3", "a": "1/3"}}})
        code, out, err = invoke(["certify", write_scenario(tmp_path, scn),
                                 "--format", "json"])
        assert code in (0, 1), err
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("scenario, option, message", [
    ({"samples": -5}, [], "samples must be a nonnegative integer, got -5"),
    ({}, ["--samples", "-5"],
     "--samples must be a nonnegative integer, got -5"),
], ids=["scenario", "--samples"])
def test_negative_samples_are_an_input_error(tmp_path, scenario, option,
                                             message):
    path = write_scenario(tmp_path, base_scenario(
        certify=K_CHANGE, **scenario))
    assert invoke(["certify", path, *option]) == (4, "", f"error: {message}\n")


def test_zero_samples_measure_the_extremal_candidates_only(tmp_path):
    scn = base_scenario(samples=0, bound={"kind": "worstcase", "mechanism":
                                          "geo", "family": {"k": 1}})
    code, out, err = invoke(["bound", write_scenario(tmp_path, scn),
                             "--format", "json"])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["samples"] == 0
    assert rep["results"]["sup"]["evaluated"]["sampled"] == 0
    assert rep["results"]["sup"]["evaluated"]["extremal"] > 0


@pytest.mark.parametrize("patch", [
    {"family": {"delta": "-inf", "exp_delta": "1/2"}},
    {"family": {"delta": -1, "exp_delta": [1]}},
    {"family": {"delta": -1, "exp_delta": 10**400}},
    {"mechanisms": {"m": {"type": "matrix", "outcomes": [["x"], "y"],
                          "rows": {"0": ["1/2", "1/2"], "1": ["1/2", "1/2"],
                                   "2": ["1/2", "1/2"]}}}},
    {"mechanisms": {"m": {"type": "matrix", "outcomes": [{"x": 1}, "y"],
                          "rows": {"0": ["1/2", "1/2"], "1": ["1/2", "1/2"],
                                   "2": ["1/2", "1/2"]}}}},
    {"priors": {"p": {"blocks": [[0, 1]],
                      "tables": [["1/4"] * 4, ["1/2", "1/2"]]}}},
], ids=["exp_delta=1/2", "exp_delta=[1]", "exp_delta=10**400",
        "outcome=list", "outcome=object", "extra table"])
def test_malformed_shared_objects_exit_4_with_one_line(tmp_path, patch):
    path = write_scenario(tmp_path, base_scenario(**patch))
    code, out, err = invoke(["validate", path])
    assert (code, out) == (4, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family, message", [
    ({"k": 1, "exp_delta": math.nan}, "exp_delta must be in [0, 1]"),
    ({"k": 1, "ell": 1, "tau": math.nan},
     "family.tau must be a number, got nan"),
], ids=["exp_delta", "tau"])
def test_nan_family_parameters_are_input_errors(tmp_path, family, message):
    # JSON NaN reads as a float NaN; the family rejects it before any work.
    bound = {"kind": "worstcase", "mechanism": "geo", "target": 0,
             "family": family}
    for command, scn in (("bound", base_scenario(bound=bound)),
                         ("validate", base_scenario(family=family))):
        path = write_scenario(tmp_path, scn)
        assert invoke([command, path]) == (4, "", f"error: {message}\n")


def test_scalars_are_read_before_the_universe_is_built(tmp_path):
    # A malformed seed is an input error even where the universe alone
    # exceeds the budget.
    scn = base_scenario(universe={"n": 10**20, "alphabet": ["BOT", "a"]},
                        seed="x")
    assert invoke(["validate", write_scenario(tmp_path, scn)]) == (
        4, "", "error: seed must be an integer, got 'x'\n")


def test_unprintable_exact_bound_is_an_input_error(tmp_path):
    # 3**10000 has 4772 digits, more than the interpreter converts to a
    # string by default; an interpreter without that limit prints it.
    path = write_scenario(tmp_path, interpolated_scenario(k=10000))
    code, out, err = invoke(["bound", path, "--format", "json"])
    if not hasattr(sys, "get_int_max_str_digits"):
        assert code == 0
        return
    assert code == 4
    assert out == ""
    assert err == (
        "error: exact value is too long to print: more than "
        f"{sys.get_int_max_str_digits()} decimal digits\n"
    )


@pytest.mark.parametrize("overrides", [
    {"exp_eps_step": 3.0, "k": 1000},
    {"exp_eps_step": "3", "k": 1000, "exp_delta": 0.5},
])
def test_overflowing_float_bound_is_infinite(tmp_path, overrides):
    path = write_scenario(tmp_path, interpolated_scenario(**overrides))
    code, out, err = invoke(["bound", path, "--format", "json"])
    assert code == 0, err
    v = json.loads(out)["verdicts"][0]
    assert v["bound"] == {"ratio": "inf", "nats": "inf"}
    assert v["satisfied"] and v["conclusive"]


def test_overflowing_float_bound_at_no_dependence_is_the_step(tmp_path):
    path = write_scenario(tmp_path, interpolated_scenario(
        exp_eps_step=3.0, k=1000, exp_delta="0"))
    code, out, err = invoke(["bound", path, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["verdicts"][0]["bound"]["ratio"] == 3.0


def _report_value(tmp_path, command, patch, code, path):
    """The value at path in the JSON report of command on the base scenario
    with patch applied; the command must exit with code."""
    scn = write_scenario(tmp_path, base_scenario(**patch))
    got, out, err = invoke([command, scn, "--format", "json"])
    assert got == code, err
    node = json.loads(out)
    for key in path:
        node = node[key]
    return node


BIG = 10**400
INF_BOUND = {"ratio": "inf", "nats": "inf"}
N3 = {"universe": {"n": 3, "alphabet": ["BOT", "a"]},
      "priors": {"uniform": {"independent": [["1/2", "1/2"]] * 3}}}
LEVEL = ("verdicts", 0, "bound")
INTERPOLATED = {"kind": "interpolated", "mechanism": "geo", "k": 2,
                "exp_delta": "1/2"}


# An int beyond the float range reads as +-inf wherever a number is read, as
# the string "1e400" does.
@pytest.mark.parametrize("command, patch, code, path, value", [
    ("validate", {"family": {"ell": 2, "tau": BIG}}, 0,
     ("results", "membership", "uniform", "ok"), True),
    ("validate", {"family": {"delta": -BIG}}, 0,
     ("results", "family", "exp_delta"), 0.0),
    ("validate", {"mechanisms": {"g": {"type": "geometric_counting",
                                       "target_symbol": "a", "epsilon": BIG}}},
     0, ("results", "mechanisms", "g", "row_count"), 3),
    ("certify", {"certify": {**AVERAGED, "tau": BIG}}, 1,
     ("verdicts", 0, "params", "tau"), "inf"),
    ("certify", {"certify": {**PERSONALIZED, "epsilons": [BIG, 1]}}, 0,
     ("verdicts", 0, "params", "levels_nats"), ["inf", 1.0]),
    ("certify", {"certify": {**PERSONALIZED, "epsilons": {"0": 1, "1": BIG}}},
     0, ("verdicts", 0, "params", "levels_nats"), [1.0, "inf"]),
    ("bound", {"bound": {**INTERPOLATED, "epsilon": BIG}}, 0, LEVEL,
     INF_BOUND),
], ids=["family.tau", "family.delta", "geometric.epsilon",
        "sufficient_averaged.tau", "personalized.epsilons=list",
        "personalized.epsilons=dict", "interpolated.epsilon"])
def test_ints_beyond_the_float_range_read_as_inf(tmp_path, command, patch,
                                                 code, path, value):
    assert _report_value(tmp_path, command, patch, code, path) == value


def test_int_delta_beyond_the_float_range_is_positive(tmp_path):
    path = write_scenario(tmp_path, base_scenario(family={"delta": BIG}))
    assert invoke(["validate", path]) == (
        4, "", "error: delta must be nonpositive\n")


@pytest.mark.parametrize("exp_delta", ["0", "1/2", "1"])
def test_infinite_interpolated_step_gives_an_infinite_bound(tmp_path,
                                                            exp_delta):
    # At exp_delta 0 and 1 one weight of the step is zero, and inf * 0 is
    # NaN, which a report cannot hold.
    bound = {**INTERPOLATED, "epsilon": "1e400", "exp_delta": exp_delta}
    assert _report_value(tmp_path, "bound", {"bound": bound}, 0,
                         LEVEL) == INF_BOUND


# A float level, power or band edge beyond the float range is inf; a band
# whose exp(tau) overflows is unbounded.
GROUP = {"kind": "group", "mechanism": "geo", "k": 1, "group": [0, 1]}
BAND = {"ell": 2, "tau": 800}
TINY = f"1/{10**400}"


@pytest.mark.parametrize("command, patch, code, path, value", [
    ("certify", {"certify": {**GROUP, "epsilon": 400}}, 0, LEVEL, INF_BOUND),
    ("certify", {"certify": {**GROUP, "exp_epsilon": 1e308}}, 0,
     ("verdicts", 0, "details", "bound_group"), "inf"),
    ("bound", {"bound": {**INTERPOLATED, "k": 1, "epsilon": 800}}, 0, LEVEL,
     INF_BOUND),
    ("bound", {"bound": {**INTERPOLATED, "exp_eps_step": "1e400",
                         "exp_delta": 0.0}}, 0, LEVEL, INF_BOUND),
    ("validate", {"family": BAND}, 0,
     ("results", "membership", "coupled", "ok"), True),
    ("leakage", {"family": BAND,
                 "leakage": {"prior": "uniform", "mechanism": "geo"}}, 0,
     ("results", "membership", "ok"), True),
    ("bound", {"bound": {"kind": "worstcase", "mechanism": "geo",
                         "family": {**BAND, "k": 1}}}, 0,
     ("results", "sup", "conclusive"), True),
    ("certify", {**N3, "certify": {**AVERAGED, "tau": 800}}, 1,
     ("verdicts", 0, "params", "tau"), 800.0),
    ("certify", {**N3, "certify": {**AVERAGED, "tau": 800, "marginals": {
        "1": {"⊥": "1/2", "a": "1/2"}}}}, 1,
     ("verdicts", 0, "conclusive"), True),
    ("bound", {"mechanisms": {"m": {"type": "matrix", "outcomes": ["x", "y"],
                                    "rows": {"0": [TINY, f"{10**400 - 1}/{10**400}"],
                                             "1": ["1/2", "1/2"],
                                             "2": ["1/2", "1/2"]}}},
               "bound": {"kind": "tightness", "mechanism": "m"}}, 1,
     ("results", "tightness", "attained"), False),
], ids=["group.epsilon=400", "group.exp_epsilon=1e308",
        "interpolated.epsilon=800", "interpolated.exp_eps_step=1e400",
        "validate.tau=800", "leakage.tau=800",
        "worstcase.tau=800", "sufficient_averaged.tau=800",
        "sufficient_averaged.marginals", "tightness.1/10^400"])
def test_float_overflow_gives_inf(tmp_path, command, patch, code, path,
                                  value):
    assert _report_value(tmp_path, command, patch, code, path) == value


def test_help_and_usage_errors_repeat_across_calls(capsys):
    # Help exits 0 through SystemExit; a usage error is bad input, returned
    # as exit 4 with one stderr line (2 would read as inconclusive).
    seen = []
    for _ in range(2):
        for argv in (["--help"], ["bound", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
            seen.append(capsys.readouterr())
        for argv in (["bound"], ["nope", "x.json"]):
            assert run(argv) == 4
            seen.append(capsys.readouterr())
    assert seen[:4] == seen[4:]
    assert seen[0].out.startswith("usage: privlens [-h]")
    assert "--budget BUDGET" in seen[1].out
    assert "--threads" not in seen[1].out
    assert "required: scenario" in seen[2].err
    for s in seen[2:4]:
        assert s.out == ""
        assert s.err.startswith("error: privlens") and s.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    [],
    ["bound", "{path}", "--seed", "x"],
    ["bound", "{path}", "--samples", "1.5"],
    ["bound", "{path}", "--threads", "1"],
    ["bound", "{path}", "--format", "xml"],
    ["bound", "{path}", "--bogus"],
    ["bound", "{path}", "extra"],
])
def test_usage_errors_exit_4_with_one_line(argv, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(DEMO))
    out, err = io.StringIO(), io.StringIO()
    code = run([a.format(path=path) for a in argv], stdout=out, stderr=err)
    assert code == 4
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: privlens")
    assert err.getvalue().count("\n") == 1

# The scenario of the README's command-line section.
DEMO = {
    "name": "demo",
    "universe": {"n": 2, "alphabet": ["BOT", "a"]},
    "priors": {
        "uniform": {"independent": [["1/2", "1/2"], ["1/2", "1/2"]]},
        "coupled": {"blocks": [[0, 1]],
                    "tables": [["9/20", "1/20", "1/20", "9/20"]]},
    },
    "mechanisms": {
        "geo": {"type": "geometric_counting", "target_symbol": "a",
                "ratio": "1/3"},
        "rr": {"type": "randomized_response", "keep_prob": "1/2"},
    },
    "family": {"k": 2, "exp_delta": "4/5"},
    "leakage": {"prior": "coupled", "mechanism": "geo"},
    "certify": {"kind": "k_change", "mechanism": "geo", "k": 1,
                "exp_epsilon": "3"},
    "bound": {"kind": "interpolated", "mechanism": "geo", "k": 2,
              "exp_eps_step": "3", "exp_delta": "1/2"},
    "seed": 0,
    "samples": 1000,
}
MUTANT_VALUES = ["x", -1, 0, 2.5, None, True, [], {}, [1], "1/0", "nan",
                 10**400, 1e308, "-0", [[1]], "1e-400"]


def _field_paths(node, prefix=()):
    """Paths to every value inside node, containers included; samples is
    left out because a large value there is a request for work."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        path = prefix + (key,)
        if path != ("samples",):
            yield path
        yield from _field_paths(value, path)


def _mutant(paths_values, base=DEMO):
    scn = json.loads(json.dumps(base))
    for path, value in paths_values:
        node = scn
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return scn


def _mutants(demos, values, pairs, seed, shared=None):
    """Mutants of each (scenario, commands) demo: every field replaced by
    every value, one at a time, plus up to pairs seeded pairs of
    replacements per demo. A field of the shared part meets each demo with
    every len(demos)-th value, so each (field, value) runs once."""
    shared = list(_field_paths(shared)) if shared else []
    rng = random.Random(seed)
    mutants = []
    for d, (demo, commands) in enumerate(demos):
        paths = list(_field_paths(demo))
        mutants.extend(
            (demo, [(p, v)], commands) for p in paths
            for i, v in enumerate(values)
            if p not in shared or i % len(demos) == d)
        for _ in range(pairs):
            first, second = rng.sample(paths, 2)
            if second[:len(first)] != first and first[:len(second)] != second:
                mutants.append((demo, [(first, rng.choice(values)),
                                       (second, rng.choice(values))],
                                commands))
    return mutants


def _assert_exit_contract(tmp_path, mutants, *options):
    """No exception escapes any mutant's commands, the exit code is one of
    the documented ones, and bad input gets a one-line message."""
    path = str(tmp_path / "mutant.json")
    for demo, changes, commands in mutants:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_mutant(changes, demo), fh)
        for command in commands:
            code, _, err = invoke([command, path, *options])
            assert code in (0, 1, 2, 3, 4), (changes, command)
            if code == 4:
                assert err.count("\n") == 1, (changes, command, err)


def test_mutated_demo_scenarios_honour_the_exit_code_contract(tmp_path):
    # Every field of the demo replaced by every value, one at a time, plus
    # seeded pairs of replacements. --samples keeps the sampled searches
    # short.
    demos = [(DEMO, ("leakage", "certify", "bound"))]
    _assert_exit_contract(tmp_path, _mutants(demos, MUTANT_VALUES, 60, 5),
                          "--samples", "20")


# One small scenario per compose kind over a shared n=2 part.
COMPOSE_SHARED = {
    "name": "compose-demo",
    "universe": {"n": 2, "alphabet": ["BOT", "a"]},
    "priors": {"mixed": {"independent": [["1/2", "1/2"], ["1/3", "2/3"]]}},
    "mechanisms": {
        "geo": {"type": "geometric_counting", "target_symbol": "a",
                "ratio": "1/3"},
        "rr": {"type": "randomized_response", "keep_prob": "1/2"},
    },
}
COMPOSE_DEMOS = [
    {**COMPOSE_SHARED, "compose": section} for section in (
        {"kind": "product", "mechanisms": ["geo", "rr"], "k": 1,
         "exp_epsilons": ["3", "3"]},
        {"kind": "epochs", "epochs": [{"prior": "mixed", "mechanism": "geo"},
                                      {"prior": "mixed", "mechanism": "rr"}],
         "target": 0},
        {"kind": "equal_epochs", "prior": "mixed", "mechanisms": ["geo", "rr"],
         "target": [0, 1]},
    )
]


def test_mutated_compose_scenarios_honour_the_exit_code_contract(tmp_path):
    # The gate above, on the compose command, with 12 seeded pairs per kind.
    demos = [(demo, ("compose",)) for demo in COMPOSE_DEMOS]
    _assert_exit_contract(tmp_path, _mutants(demos, MUTANT_VALUES, 12, 6,
                                             COMPOSE_SHARED))


# One small scenario per certify and bound kind not in the demo, plus
# leakage with targets and a sweep, over a shared n=3 part whose geometric
# mechanism is given by epsilon, next to a matrix mechanism; the family
# gives both delta and exp_delta. Levels, tau and ell are fuzzed with values
# whose exponentials or powers leave the float range as well, and with NaN.
SECTION_SHARED = {
    "name": "section-demo",
    "universe": {"n": 3, "alphabet": ["BOT", "a"]},
    "priors": {"uniform": {"independent": [["1/2", "1/2"]] * 3}},
    "mechanisms": {"geo": {"type": "geometric_counting",
                           "target_symbol": "a", "epsilon": 1},
                   "m": {"type": "matrix", "outcomes": ["x", "y"],
                         "rows": {str(c): ["1/2", "1/2"] for c in range(4)}}},
}
# Both spellings of the dependence cap, in agreement.
SECTION_FAMILY = {"k": 1, "delta": -1, "exp_delta": math.exp(-1), "ell": 1,
                  "tau": 1}
SECTION_DEMOS = [
    ({**SECTION_SHARED, **extra}, (command,)) for command, extra in (
        ("certify", {"certify": {"kind": "necessary_dependence",
                                 "mechanism": "geo", "exp_delta": "1/2",
                                 "epsilon": 2}}),
        ("certify", {"certify": {"kind": "sufficient_averaged",
                                 "mechanism": "geo", "k": 1, "epsilon": 2,
                                 "tau": 1,
                                 "marginals": {"1": {"⊥": 0.5, "a": 0.5}}}}),
        ("certify", {"certify": {"kind": "group", "mechanism": "geo", "k": 1,
                                 "group": [0, 1], "epsilon": 2}}),
        ("certify", {"certify": {"kind": "personalized", "mechanism": "geo",
                                 "prior": "uniform", "epsilons": [1, 2, 3]}}),
        ("bound", {"bound": {"kind": "worstcase", "mechanism": "geo",
                             "target": 0, "family": SECTION_FAMILY,
                             "epsilon": 2}}),
        ("bound", {"bound": {"kind": "tightness", "mechanism": "geo",
                             "k": 1}}),
        ("leakage", {"family": SECTION_FAMILY,
                     "leakage": {"prior": "uniform", "mechanism": "geo",
                                 "targets": [0, [1, 2]]}}),
        ("sweep", {"sweep": {"over": "exp_delta", "values": ["1/2", 0],
                             "task": {"command": "bound",
                                      "kind": "interpolated",
                                      "mechanism": "geo", "k": 1,
                                      "epsilon": 2}}}),
    )
]


def test_mutated_section_scenarios_honour_the_exit_code_contract(tmp_path):
    # The gate above, on every section kind the demo leaves out.
    _assert_exit_contract(
        tmp_path,
        _mutants(SECTION_DEMOS, MUTANT_VALUES + [400, 800, math.nan], 4, 7,
                 SECTION_SHARED),
        "--samples", "20")
