"""tools/replay_diff.py: a tree replayed against itself moves nothing, and a
moved, added or removed leaf is printed."""

import importlib.util
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


def test_moves_names_each_changed_leaf():
    spec = importlib.util.spec_from_file_location("replay_diff", TOOL)
    replay_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay_diff)
    old = {"exit": 0, "a": "0.5", "b": "x", "gone": 1}
    new = {"exit": 3, "a": "0.75", "b": "x", "new": 2}
    assert replay_diff.moves(old, new) == ["a: '0.5' -> '0.75' (relative 0.5)", "exit: 0 -> 3",
                                           "gone: removed (1)", "new: added (2)"]
