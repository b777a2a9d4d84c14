#!/usr/bin/env python3
"""List the requests whose exit code or stdout differ between two report
dumps of tools/dump_reports.py, as Markdown.

Run from anywhere:

    python3 tools/compare_reports.py base.jsonl head.jsonl

A request is keyed by its workload, seed and name. The output names every
request whose exit code or stdout differ, and every request that only one
dump holds. A dump that is missing or unreadable is reported as such. The
exit code is always 0: the comparison informs, it does not gate. Only the
standard library is used.
"""

import argparse
import json
import sys


def load(path):
    """{(workload, seed, name): (exit, stdout)} of a dump."""
    reports = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            reports[r["workload"], r["seed"], r["name"]] = (r["exit"],
                                                            r["stdout"])
    return reports


def compare(base, head):
    """Markdown lines naming what differs between two loaded dumps."""
    def name(key):
        return f"`{key[0]}` seed {key[1]} `{key[2]}`"

    lines = []
    for key in sorted(base.keys() & head.keys()):
        (b_exit, b_out), (h_exit, h_out) = base[key], head[key]
        what = [w for w, differs in (("exit code", b_exit != h_exit),
                                     ("stdout", b_out != h_out)) if differs]
        if what:
            detail = (f" ({b_exit} -> {h_exit})" if b_exit != h_exit else "")
            lines.append(f"- {name(key)}: {' and '.join(what)}{detail}")
    for key in sorted(base.keys() - head.keys()):
        lines.append(f"- {name(key)}: only at the base")
    for key in sorted(head.keys() - base.keys()):
        lines.append(f"- {name(key)}: only at the head")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="dump of the base commit")
    parser.add_argument("head", help="dump of the head commit")
    args = parser.parse_args(argv)
    print("## Reports against the base commit\n")
    try:
        base, head = load(args.base), load(args.head)
    except (OSError, ValueError, KeyError) as exc:
        print(f"No comparison: a dump could not be read ({exc!r}).")
        return 0
    lines = compare(base, head)
    print(f"{len(base.keys() & head.keys())} requests in both dumps; "
          f"{len(lines)} differ or are in one dump only.\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
