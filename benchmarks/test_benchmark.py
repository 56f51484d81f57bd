"""Self-test of the benchmark, at tiny input sizes.

    python -m pytest benchmarks

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, that a corrupted program output counts as a failed op without
crashing the run, that traced counts repeat exactly for a fixed seed, and
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] == "count" or m["name"].startswith("samplers.accept_ratio.")]


def tiny_run(workload, trace, seed=3, seconds=0.3):
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", str(trace), "--size", "tiny"])
    record = run.run(args)
    return record, run.report(record)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record, summary = tiny_run(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    if not trace:
        assert record["extra"]["failed_frac"] == (0.0, "1")
        assert "op_tail_percentile" in record["extra"]
        assert ("chain_steps_per_s" in record["extra"]) == (workload == "sim-chains")
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert set(record["env"]) >= {"python", "numpy", "blas", "blas_threads", "nproc",
                                  "cpu_model", "git_commit"}


def _corrupt_registry(monkeypatch):
    from varorder import cli, variance
    real = cli.asvar_homogeneous
    monkeypatch.setattr(cli, "asvar_homogeneous", lambda P, pi, f: variance.VarianceReport(
        real(P, pi, f).value + 1.0, "closed_form"))


def _corrupt_exact(monkeypatch):
    from varorder import exactify, kernels
    real = exactify.stationary_distribution

    def shifted(K):
        w = real(K).weights.copy()
        w[0], w[-1] = w[-1], w[0]
        return kernels.ProbVector(w, K.space)
    monkeypatch.setattr(exactify, "stationary_distribution", shifted)


def _corrupt_chains(monkeypatch):
    from varorder import samplers
    monkeypatch.setattr(samplers, "freeze_step", lambda m, state, rng: samplers.ChainState(
        y=state.y, u=state.u, accepts={"move": False}))


@pytest.mark.parametrize("workload,corrupt", [
    ("registry-exact", _corrupt_registry),
    ("exact-large", _corrupt_exact),
    ("sim-chains", _corrupt_chains)])
def test_corrupted_output_counts_as_failed(workload, corrupt, monkeypatch):
    corrupt(monkeypatch)
    record, summary = tiny_run(workload, 0)
    assert summary["failed"] == summary["attempted"] >= 1
    assert not summary["correct"]
    assert record["extra"]["failed_frac"][0] == 1.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first = tiny_run(workload, 1)[1]["metrics"]
    again = tiny_run(workload, 1)[1]["metrics"]
    for name in COUNT_METRICS:
        assert first[name]["value"] == again[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "registry-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
