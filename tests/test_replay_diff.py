"""tools/replay_diff.py: a tree replayed against itself moves nothing, and a
moved, added or removed leaf, a changed description and a scenario listed by
one tree only are printed."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "replay_diff.py"


def test_a_tree_replayed_against_itself_moves_nothing():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                          "--scenario", "mcwm-bias", "--seed", "1"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == ""
    assert "mcwm-bias seed 1: exit 0 -> 0, 0 moved" in run.stderr
    assert run.stderr.endswith("largest relative move: none; 0 moved leaf(s) without one\n")


def test_a_changed_description_and_a_renamed_scenario_are_printed(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "varorder" / "cli.py"
    text = cli.read_text()
    assert text.count("positive stationary") == 1 and text.count('"gimh-exactness"') == 1
    cli.write_text(text.replace("positive stationary", "a stationary")
                   .replace('"gimh-exactness"', '"gimh-exact"'))
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(tmp_path),
                          "--scenario", "mcwm-bias", "--seed", "1"],
                         capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == ["gimh-exact: listed only in the new tree",
                         "gimh-exactness: listed only in the old tree"]
    assert lines[2].startswith("mcwm-bias seed 1: describe: 'mcwm-bias\\nUnconditional")
    assert "biased: positive stationary" in lines[2] and "biased: a stationary" in lines[2]
    assert len(lines) == 3 and "mcwm-bias seed 1: exit 0 -> 0, 1 moved" in run.stderr


def load_tool():
    spec = importlib.util.spec_from_file_location("replay_diff", TOOL)
    replay_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay_diff)
    return replay_diff


def test_moves_names_each_changed_leaf():
    replay_diff = load_tool()
    old = {"exit": 0, "a": "0.5", "b": "x", "gone": 1}
    new = {"exit": 3, "a": "0.75", "b": "x", "new": 2}
    assert replay_diff.moves(old, new) == ["a: '0.5' -> '0.75' (relative 0.5)", "exit: 0 -> 3",
                                           "gone: removed (1)", "new: added (2)"]


def test_closing_line_names_the_largest_relative_move():
    """Over every run, the largest relative move and its place; moves with
    no relative figure (an exit code from 0, added, removed) are counted."""
    replay_diff = load_tool()
    runs = {"a seed 1": ({"exit": 0, "x": "1.0", "y": "2.0", "gone": 1},
                         {"exit": 3, "x": "1.5", "y": "2.0", "new": 2}),
            "b seed 7": ({"exit": 0, "x": "4.0"}, {"exit": 0, "x": "1.0"})}
    assert replay_diff.largest_move(runs) == ("largest relative move: 0.75 at b seed 7: x; "
                                              "3 moved leaf(s) without one")
    assert replay_diff.largest_move({"c seed 1": ({"x": "1"}, {"x": "1"})}) == (
        "largest relative move: none; 0 moved leaf(s) without one")
