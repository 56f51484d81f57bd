"""Replay the registry scenarios on two source trees and print what moved.

    python tools/replay_diff.py OLD_TREE NEW_TREE [--scenario NAME ...] [--seed N ...]

Each tree is a checkout of this repository; its ``src/`` is put first on
PYTHONPATH for its runs.  Every scenario (default: each that NEW_TREE lists)
runs at its default params at each seed (default: 1, 7 and 42) through
``varorder.cli`` in a fresh process.  The script prints each changed exit code, each moved
number of ``results.csv``, ``report.json`` and ``metadata.json`` (without
``elapsed_seconds``) with its relative change, each other moved value (the
``varorder describe`` text of the scenario among them), each key that one
tree writes and the other does not, and each scenario that ``varorder list``
shows in one tree only.  Its closing line names the largest relative move
over all runs and where it was.  It exits 1 when anything moved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile

SEEDS = (1, 7, 42)


def _varorder(tree: str, *args: str) -> subprocess.CompletedProcess:
    """python -m varorder.cli args, on tree's src/."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    return subprocess.run([sys.executable, "-m", "varorder.cli", *args], env=env,
                          capture_output=True, text=True)


def _flatten(doc, prefix: str):
    """(path, leaf) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _flatten(value, f"{prefix}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def replay(tree: str, scenario: str, seed: int, out: str) -> dict:
    """Run one scenario on tree's src/ into out; returns {path: leaf} over its
    exit code, its describe text and its output files."""
    os.makedirs(out)
    config = os.path.join(out, "config.json")
    with open(config, "w") as fh:
        json.dump({"scenario": scenario}, fh)
    leaves = {"exit": _varorder(tree, "run", config, "--seed", str(seed),
                                "--out-dir", out).returncode,
              "describe": _varorder(tree, "describe", scenario).stdout}
    if os.path.exists(path := os.path.join(out, "results.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (f"results.csv {row['algorithm']}/{row['metric']}"
                       f"/seed={row['seed']}/rep={row['replicate']}")
                for column in ("value", "stderr", "method"):
                    leaves[f"{key} {column}"] = row[column]
    for name in ("report.json", "metadata.json"):
        if os.path.exists(path := os.path.join(out, name)):
            with open(path) as fh:
                doc = json.load(fh)
            doc.pop("elapsed_seconds", None)
            leaves.update(_flatten(doc, name))
    return leaves


def _number(leaf):
    try:
        return float(leaf)
    except (TypeError, ValueError):
        return None


def relative_move(old, new):
    """|new - old| / |old| of two numeric leaves; None when either is not a
    number or old is 0."""
    a, b = _number(old), _number(new)
    return abs(b - a) / abs(a) if a is not None and b is not None and a != 0.0 else None


def moves(old: dict, new: dict) -> list:
    """One line per leaf that moved, was added or was removed."""
    lines = []
    for path in sorted(old.keys() | new.keys(), key=lambda p: (p not in old, p)):
        if path not in new:
            lines.append(f"{path}: removed ({old[path]!r})")
        elif path not in old:
            lines.append(f"{path}: added ({new[path]!r})")
        elif old[path] != new[path]:
            change = relative_move(old[path], new[path])
            change = "" if change is None else f" (relative {change:.3g})"
            lines.append(f"{path}: {old[path]!r} -> {new[path]!r}{change}")
    return lines


def largest_move(runs: dict) -> str:
    """The closing line over {run label: (old leaves, new leaves)}: the
    largest relative move of a leaf both trees write, where it was, and how
    many moved leaves have no relative figure (added, removed, not numbers,
    or moved from 0)."""
    worst, where, other = None, None, 0
    for label, (old, new) in runs.items():
        for path in sorted(old.keys() | new.keys()):
            if path in old and path in new and old[path] == new[path]:
                continue
            change = relative_move(old.get(path), new.get(path))
            if change is None:
                other += 1
            elif worst is None or not change <= worst:  # a NaN move counts as the largest
                worst, where = change, f"{label}: {path}"
    largest = "none" if worst is None else f"{worst:.3g} at {where}"
    return f"largest relative move: {largest}; {other} moved leaf(s) without one"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--scenario", action="append",
                        help="a scenario to replay (repeatable; default every "
                             "scenario NEW_TREE lists)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a seed to replay at (repeatable; default 1, 7, 42)")
    args = parser.parse_args(argv)
    trees = {"old": args.old_tree, "new": args.new_tree}
    listed = {side: set(_varorder(tree, "list").stdout.split()) for side, tree in trees.items()}
    unlisted = sorted(listed["old"] ^ listed["new"])
    for name in unlisted:
        print(f"{name}: listed only in the {'old' if name in listed['old'] else 'new'} tree")
    moved, runs = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in args.scenario or sorted(listed["new"]):
            for seed in args.seed or SEEDS:
                old, new = (replay(tree, scenario, seed, os.path.join(tmp, side, scenario,
                                                                      str(seed)))
                            for side, tree in trees.items())
                lines = moves(old, new)
                moved += bool(lines)
                runs[f"{scenario} seed {seed}"] = old, new
                for line in lines:
                    print(f"{scenario} seed {seed}: {line}")
                print(f"{scenario} seed {seed}: exit {old['exit']} -> {new['exit']}, "
                      f"{len(lines)} moved", file=sys.stderr)
    print(f"{moved} run(s) moved", file=sys.stderr)
    print(largest_move(runs), file=sys.stderr)
    return 1 if moved or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
