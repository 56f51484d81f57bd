"""The library surface: only what scenarios, the CLI and the benchmark run."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import varorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varorder"
BENCHMARKS = ROOT / "benchmarks"

# Allowed public names that nothing outside tests uses, each with its reason.
ALLOWED_UNUSED = {
    # steppers with no caller yet: the sim-vs-exact and GIMH-sweep items of
    # the ROADMAP run them against the exact layer
    "systematic_refresh_step", "noisy_step", "marginal_mh_step",
}


# a string that names something, such as "toys.random_lazy_quadruple"; prose
# and scenario names such as "registry-exact" are not uses
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _public_definitions(tree):
    """(name, node) of public top-level functions, classes and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def _mentions(tree):
    """(word, line) of every name, attribute and imported name in tree, and of
    every part of a string literal that is a dotted name; docstrings and
    comments are prose, not uses."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and DOTTED.fullmatch(node.value)):
            for word in node.value.split("."):
                yield word, node.lineno


def test_every_public_name_appears_outside_its_definition():
    """A public name of the package that no module of the package or of the
    benchmark uses outside its own definition is reachable only from tests,
    unless varorder.__all__ exports it.  Uses are names, attributes, imports
    and string literals that are dotted names (the benchmark's tracer looks
    functions up by name); comments, docstrings and prose do not count.  An
    allowlisted name that gains a use must leave the allowlist."""
    files = sorted(SRC.glob("*.py")) + sorted(BENCHMARKS.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    mentions = {path: list(_mentions(trees[path])) for path in files}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in _public_definitions(trees[path]):
            if name not in varorder.__all__ and not any(
                    word == name for other in files for word, line in mentions[other]
                    if not (other == path and node.lineno <= line <= node.end_lineno)):
                unused.append(name)
    assert sorted(unused) == sorted(ALLOWED_UNUSED)


def test_importing_the_cli_adds_only_numpy_and_the_standard_library():
    """numpy is the only runtime dependency; modules that were already loaded
    before the import (interpreter start-up .pth hooks) do not count."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import varorder.cli\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert set(json.loads(done.stdout)) <= {"numpy", "varorder"}


def test_no_module_of_the_package_calls_generator_choice():
    """Categorical draws go through samplers.choice_cdf and bisect_right, the
    one way the package draws them; prose that names .choice( is no call."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "choice"]
    assert calls == []


def test_no_module_of_the_package_calls_isinstance_with_rng_stream():
    """Runners take an RngStream and steppers its Generator, so no code path
    asks which of the two it was given; prose that names isinstance is no call."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and "RngStream" in ast.unparse(node)]
    assert calls == []
