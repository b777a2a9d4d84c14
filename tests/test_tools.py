import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_tool(name, directory=TOOLS):
    spec = importlib.util.spec_from_file_location(name,
                                                  directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = load_tool("compare_reports")


def test_benchmark_tracer_binds_every_traced_name():
    # The benchmark's tracer wraps each traced function wherever a privlens
    # module binds it and lists the names it cannot find; a renamed or
    # removed function would otherwise only show in the traced benchmark
    # run. Uninstalling puts every original back.
    tracing = load_tool("tracer", ROOT / "perfbench")
    modules = {name: importlib.import_module(f"privlens.{name}")
               for name in tracing.MODULES}
    originals = {(module, name): getattr(modules[module], name)
                 for module, name in (("prior", "sample_prior"),
                                      ("prior", "sigma"),
                                      ("prior", "check_membership"),
                                      ("audit", "check_membership"),
                                      ("leakage", "max_mi"),
                                      ("audit", "max_mi"))}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for (module, name), original in originals.items():
            assert getattr(modules[module], name).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(modules[module], name) is original


def write_dump(path, reports):
    """A dump as tools/dump_reports.py writes it: one JSON line per
    (workload, seed, name, exit, stdout)."""
    with open(path, "w", encoding="utf-8") as fh:
        for workload, seed, name, code, stdout in reports:
            fh.write(json.dumps({"workload": workload, "seed": seed,
                                 "name": name, "exit": code,
                                 "stdout": stdout}, sort_keys=True) + "\n")
    return str(path)


BASE = [
    ("search", 0, "group", 0, "{}\n"),
    ("scan", 1, "rr", 2, "{\"a\": 1}\n"),
    ("scan", 0, "geo", 0, "{}\n"),
    ("exact", 3, "compose", 0, "{}\n"),
]


def test_equal_dumps_give_no_lines(tmp_path, capsys):
    base = write_dump(tmp_path / "base.jsonl", BASE)
    head = write_dump(tmp_path / "head.jsonl", reversed(BASE))
    assert compare_reports.compare(compare_reports.load(base),
                                   compare_reports.load(head)) == []
    assert compare_reports.main([base, head]) == 0
    assert "4 requests in both dumps; 0 differ" in capsys.readouterr().out


def test_each_difference_gives_one_line_in_key_order(tmp_path, capsys):
    head = [
        ("search", 0, "group", 3, "{}\n"),
        ("scan", 1, "rr", 2, "{\"a\": 2}\n"),
        ("scan", 0, "geo", 0, "{}\n"),
        ("search", 2, "new", 0, "{}\n"),
    ]
    want = [
        "- `scan` seed 1 `rr`: stdout",
        "- `search` seed 0 `group`: exit code (0 -> 3)",
        "- `exact` seed 3 `compose`: only at the base",
        "- `search` seed 2 `new`: only at the head",
    ]
    base_path = write_dump(tmp_path / "base.jsonl", BASE)
    head_path = write_dump(tmp_path / "head.jsonl", head)
    assert compare_reports.compare(compare_reports.load(base_path),
                                   compare_reports.load(head_path)) == want
    assert compare_reports.main([base_path, head_path]) == 0
    out = capsys.readouterr().out
    assert "3 requests in both dumps; 4 differ or are in one dump only" in out
    assert out.splitlines()[-4:] == want


def test_a_missing_dump_is_reported_and_exits_0(tmp_path, capsys):
    # The message names the side and the path of the unreadable dump.
    present = write_dump(tmp_path / "present.jsonl", BASE)
    missing = str(tmp_path / "missing.jsonl")
    for side, argv in (("base", [missing, present]),
                       ("head", [present, missing])):
        assert compare_reports.main(argv) == 0
        out = capsys.readouterr().out
        assert (f"No comparison: the {side} dump `{missing}` could not be "
                "read") in out
        assert "FileNotFoundError" in out
        assert "requests in both dumps" not in out


def run_dump(path, *options):
    """The lines tools/dump_reports.py writes to path with these options,
    run in its own process, since it imports privlens afresh."""
    subprocess.run([sys.executable, str(TOOLS / "dump_reports.py"),
                    "--out", str(path), *options], check=True,
                   capture_output=True)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def full_dump(tmp_path_factory):
    return run_dump(tmp_path_factory.mktemp("dump") / "all.jsonl")


def test_dump_defaults_to_every_workload_and_seed_0_to_3(full_dump):
    keys = [(r["workload"], r["seed"]) for r in map(json.loads, full_dump)]
    assert len(full_dump) == 284
    assert list(dict.fromkeys(keys)) == [
        (w, s) for w in ("scan", "search", "exact") for s in range(4)]


def test_dump_writes_only_the_named_workloads_and_seeds(tmp_path, full_dump):
    # Repeated options, in any order, give the full dump's lines of those
    # workloads and seeds, in its order.
    got = run_dump(tmp_path / "some.jsonl", "--seed", "3", "--workload",
                   "search", "--seed", "1", "--workload", "exact")
    want = [line for line in full_dump
            if json.loads(line)["workload"] in ("search", "exact")
            and json.loads(line)["seed"] in (1, 3)]
    assert got == want and want
