#!/usr/bin/env python3
"""Write the exit code and stdout of every benchmark request, one JSON line
each, so that the reports of two Pythons can be compared byte for byte.

Run from the root of a checkout:

    python3 tools/dump_reports.py --out reports.jsonl

For each workload of perfbench/scenarios.py and each of the seeds 0 to 3,
or only the workloads and seeds named by the repeatable --workload and
--seed options (say ``--workload search --seed 0``), the requests are
generated, their scenario files written to a temporary directory, and each
request run once in this process by the benchmark's own client
(perfbench/run.py): ``privlens.cli.run([command, scenario, "--format",
"json"])`` on the sources under src/. A request that raises is written
with the exception in place of its exit code. Only the standard library is
used.
"""

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402
import scenarios  # noqa: E402

SEEDS = (0, 1, 2, 3)


def dump(fh, workloads, seeds):
    """Write one line per request of each of workloads and seeds, in that
    order; returns the number of lines."""
    cli = bench.import_privlens()
    lines = 0
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads:
            for seed in seeds:
                reqs = scenarios.generate(workload, seed)
                paths = scenarios.write(
                    reqs, os.path.join(workdir, f"{workload}-{seed}"))
                client = bench.Client(cli, reqs, paths, None)
                for req, path in client.jobs:
                    code, stdout, _ = client.call(req, path)
                    fh.write(json.dumps({
                        "workload": workload, "seed": seed,
                        "name": req["name"], "exit": code, "stdout": stdout,
                    }, sort_keys=True) + "\n")
                    lines += 1
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to write")
    parser.add_argument("--workload", action="append",
                        choices=scenarios.WORKLOADS,
                        help="a workload to dump (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a seed to dump (repeatable; default: "
                        + ", ".join(map(str, SEEDS)) + ")")
    args = parser.parse_args(argv)
    # Named workloads and seeds keep the default dump's order.
    workloads = [w for w in scenarios.WORKLOADS
                 if args.workload is None or w in args.workload]
    seeds = SEEDS if args.seed is None else sorted(set(args.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        lines = dump(fh, workloads, seeds)
    print(f"wrote {lines} requests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
