"""CLI plumbing: registry, configs, determinism, exit codes, output files."""

import csv
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import varorder
from varorder import cli, ergodicity, exactify, kernels, toys, variance


EXPECTED_SCENARIOS = {
    "remark14", "flip-counterexample", "theorem4-random-pairs",
    "freeze-vs-refresh", "random-refresh", "gimh-exactness", "mcwm-bias",
    "marginal-mh-peskun", "gmtm-equivalence", "rmcmc-gaussian",
    "abc-random-refresh", "ergodicity-certificates",
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_registry_is_complete():
    assert EXPECTED_SCENARIOS <= set(cli._REGISTRY)


def test_every_runner_is_registered_exactly_once():
    """A _run_* function that no _scenario decorator registers would be dead code."""
    defined = sorted(name for name, value in vars(cli).items()
                     if name.startswith("_run_") and callable(value))
    registered = sorted(spec.runner.__name__ for spec in cli._REGISTRY.values())
    assert defined and registered == defined


def test_list_and_describe(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "remark14" in out
    assert cli.main(["describe", "remark14"]) == 0
    assert "counterexample" in capsys.readouterr().out
    assert cli.main(["describe", "nope"]) == 1
    assert "known scenarios" in capsys.readouterr().err


def test_unknown_scenario_lists_alternatives(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "not-a-thing"})
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "remark14" in err and "mcwm-bias" in err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert cli.main(["run", str(path)]) == 1


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b'{"scenario": "remark14", "seed": ' + b"9" * 5000 + b"}", b"[" * 100_000],
    ids=["not-utf-8", "5000-digit-seed", "100000-nested-lists"])
def test_unreadable_config_is_a_one_line_config_error(tmp_path, capsys, content):
    """Decoding errors past JSON syntax (UTF-8, int digits, nesting depth)
    are config errors too, not tracebacks."""
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc, args, message", [
    ({"scenario": "abc-random-refresh", "chain_length": 2**1100}, [],
     "chain_length must be <= 3000000"),
    ({"scenario": "rmcmc-gaussian", "replicates": 2**1100}, [], "replicates must be <= 500000"),
    ({"scenario": "rmcmc-gaussian", "chain_length": 10**13}, [],
     "chain_length must be <= 3000000"),
    ({"scenario": "freeze-vs-refresh", "seed": -1}, [], "seed must be >= 0, got -1"),
    ({"scenario": "rmcmc-gaussian", "seed": -1}, [], "seed must be >= 0, got -1"),
    ({"scenario": "remark14", "seed": -1}, [], "seed must be >= 0, got -1"),
    ({"scenario": "remark14"}, ["--seed", "-1"], "seed must be >= 0, got -1")])
def test_out_of_range_configs_are_config_errors_at_load(tmp_path, capsys, doc, args,
                                                        message):
    """Values past the limits fail in one line before the run: the huge ones
    overflowed or ran out of memory inside it, and a negative seed failed only
    in the scenarios that draw random numbers."""
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("scenario, name, most", [
    ("rmcmc-gaussian", "chain_length", cli.MAX_CHAIN_LENGTH),
    ("abc-random-refresh", "chain_length", cli.MAX_CHAIN_LENGTH),
    ("rmcmc-gaussian", "replicates", cli.MAX_COUNT),
    ("theorem4-random-pairs", "pairs", cli.MAX_COUNT),
    ("flip-counterexample", "horizon", cli.MAX_COUNT),
    ("ergodicity-certificates", "horizon", cli.MAX_COUNT),
    ("freeze-vs-refresh", "functions", cli.MAX_COUNT)])
def test_the_maxima_load_and_one_more_is_a_config_error(scenario, name, most):
    def load(value):
        where = {name: value} if name in cli.TOP_LEVEL_PARAMS else {"params": {name: value}}
        return cli.config_from_document({"scenario": scenario, **where})

    assert load(most).params[name] == most
    with pytest.raises(cli.ConfigError, match=f"{name} must be <= {most}, got {most + 1}$"):
        load(most + 1)


def test_invalid_replicates_rejected(tmp_path, capsys):
    for replicates in (0, -3):
        cfg = write_config(tmp_path, {"scenario": "rmcmc-gaussian", "replicates": replicates})
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        assert f"replicates must be >= 1, got {replicates}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_run_writes_all_outputs_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "remark14", "seed": 5})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", cfg, "--out-dir", out1]) == 0
    assert cli.main(["run", cfg, "--out-dir", out2]) == 0
    csv1 = Path(os.path.join(out1, "results.csv")).read_text()
    csv2 = Path(os.path.join(out2, "results.csv")).read_text()
    assert csv1 == csv2
    with open(os.path.join(out1, "results.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert all(r[0] == "remark14" for r in rows[1:])
    report = json.loads(Path(os.path.join(out1, "report.json")).read_text())
    assert report["all_hold"] is True
    assert all(list(a) == ["assertion", "holds", "called", "value", "relation", "limit",
                           "tol", "margin"] for a in report["assertions"])
    meta = json.loads(Path(os.path.join(out1, "metadata.json")).read_text())
    assert meta["seed"] == 5
    assert set(meta) == {"scenario", "seed", "rng", "params", "tolerances", "versions",
                         "elapsed_seconds"}
    assert meta["rng"] == "numpy-pcg64"
    assert "tolerances" in meta


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "remark14", "seed": 5})
    out = str(tmp_path / "o")
    assert cli.main(["run", cfg, "--out-dir", out, "--seed", "9"]) == 0
    meta = json.loads(Path(os.path.join(out, "metadata.json")).read_text())
    assert meta["seed"] == 9


def test_replicates_with_equal_seeds_give_identical_rows(tmp_path):
    doc = {"scenario": "rmcmc-gaussian", "seed": 4, "chain_length": 2000,
           "replicates": 2}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    means = {r["replicate"]: r["value"] for r in rows if r["metric"] == "mean"}
    assert set(means) == {"0", "1"}
    # replicate seeds differ (base + index), so values differ; rerunning the
    # same replicate elsewhere reproduces its row bit-exactly
    out2 = str(tmp_path / "o2")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out2]) == 0
    with open(os.path.join(out2, "results.csv")) as fh:
        rows2 = list(csv.DictReader(fh))
    assert rows == rows2


def test_assertion_failure_exits_3(tmp_path, monkeypatch):
    def failing_runner(cfg, res):
        res.check("always false", "variance.asvar_homogeneous", 1.0, "<", 1.0)

    monkeypatch.setitem(cli._REGISTRY, "remark14",
                        cli.ScenarioSpec("remark14", "stub", failing_runner, {}))
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    out = str(tmp_path / "o")
    assert cli.main(["run", cfg, "--out-dir", out]) == 3
    report = json.loads(Path(os.path.join(out, "report.json")).read_text())
    assert report["all_hold"] is False


@pytest.mark.parametrize("flags", [["--seed", "x"], ["--bogus"], ["--threads", "2"]])
def test_usage_errors_exit_1_without_a_traceback(tmp_path, flags):
    """A bad command line is a config error (exit 1), not a model error (2)."""
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = str(tmp_path / "o")
    done = subprocess.run([sys.executable, "-m", "varorder.cli", "run", cfg,
                           "--out-dir", out, *flags],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "config error" in done.stderr and "usage:" in done.stderr
    assert "Traceback" not in done.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("scenario", ["remark14", "abc-random-refresh",
                                      "ergodicity-certificates"])
def test_replicates_are_config_errors_where_no_runner_uses_them(tmp_path, capsys,
                                                                scenario):
    """metadata.json would record a replicate count that no run used."""
    doc = {"scenario": scenario, "replicates": 2, "chain_length": 500}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert f"{scenario} takes no params [" in err and "'replicates'" in err
    assert not os.path.exists(os.path.join(out, "metadata.json"))


def run_registry(tmp_path) -> dict:
    """Run every registry scenario at reduced sizes; {name: (exit code, out dir)}."""
    runs = {}
    for name in sorted(EXPECTED_SCENARIOS):
        doc = {"scenario": name, "seed": 1}
        if name in ("rmcmc-gaussian", "abc-random-refresh"):
            doc["chain_length"] = 5000
        if name == "theorem4-random-pairs":
            doc["params"] = {"pairs": 30}
        out = str(tmp_path / name)
        runs[name] = cli.main(["run", write_config(tmp_path, doc, f"{name}.json"),
                               "--out-dir", out]), out
    return runs


def test_every_registry_scenario_runs(tmp_path):
    """Smoke-run the full registry at reduced sizes."""
    for name, (code, out) in run_registry(tmp_path).items():
        assert code == 0, name
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert os.path.exists(os.path.join(out, "report.json"))
        assert os.path.exists(os.path.join(out, "metadata.json"))


def test_every_called_name_resolves_after_importing_the_package_alone(tmp_path):
    """A report's called names are module.function paths from the package
    root; a fresh interpreter that runs only `import varorder` finds each."""
    called = sorted({a["called"] for _, out in run_registry(tmp_path).values()
                     for a in json.loads(Path(out, "report.json").read_text())["assertions"]})
    assert {name.partition(".")[0] for name in called} >= {
        "ergodicity", "exactify", "special_cases"}
    code = ("import functools, json, sys\n"
            "import varorder\n"
            "for name in json.loads(sys.argv[1]):\n"
            "    assert callable(functools.reduce(getattr, name.split('.'), varorder)), name\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(called)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("horizon, code", [(77, 0), (78, 1), (200, 1)])
def test_ergodicity_horizon_past_the_decidable_lag_is_a_config_error(tmp_path, capsys,
                                                                      horizon, code):
    """Past lag 77 the registry toy's systematic covariance bound is below
    SLACK_TOL, so any rounding-level covariance would meet it: the check
    could not fail there."""
    doc = {"scenario": "ergodicity-certificates", "seed": 42, "params": {"horizon": horizon}}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == code
    if code:
        assert f"horizon must be <= 77, got {horizon}" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_undecidable_horizon_is_refused_before_any_covariance(tmp_path, capsys,
                                                              monkeypatch):
    """The refusal needs only the fitted certificates: with the covariance
    routine broken, horizon 500000 still exits 1 naming 77, at once."""
    def broken(*args):
        raise AssertionError("a covariance was computed")

    monkeypatch.setattr(ergodicity, "alternating_autocov", broken)
    doc = {"scenario": "ergodicity-certificates", "seed": 42, "params": {"horizon": 500000}}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert "horizon must be <= 77, got 500000" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [0, -3])
def test_nonpositive_pairs_is_config_error(tmp_path, capsys, pairs):
    """Zero pairs would make the ordering assertion hold vacuously."""
    doc = {"scenario": "theorem4-random-pairs", "params": {"pairs": pairs}}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("scenario, param, value", [
    ("freeze-vs-refresh", "functions", 0), ("random-refresh", "functions", 0),
    ("marginal-mh-peskun", "functions", 0), ("flip-counterexample", "horizon", 0),
    ("ergodicity-certificates", "horizon", -1)])
def test_nonpositive_count_params_are_config_errors(tmp_path, capsys, scenario,
                                                    param, value):
    """Each would leave an assertion with nothing to check (margin or slack inf)."""
    doc = {"scenario": scenario, "params": {param: value}}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert f"{param} must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("scenario, params", [
    ("theorem4-random-pairs", {"pair": 5}), ("gimh-exactness", {"functions": 2}),
    ("gimh-exactness", {"horizon": 40})])
def test_unknown_params_are_config_errors(tmp_path, capsys, scenario, params):
    """A misspelt name would run at the default and still be listed in metadata.json."""
    doc = {"scenario": scenario, "params": params}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert "takes no params" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_unknown_top_level_keys_are_config_errors():
    """A misspelt seed or chain length would run at the default."""
    with pytest.raises(cli.ConfigError, match=r"unknown config keys \['chainlength', 'sead'\]"):
        cli.config_from_document({"scenario": "remark14", "sead": 3, "chainlength": 5})


@pytest.mark.parametrize("name", ["chain_length", "replicates"])
def test_top_level_params_inside_params_are_config_errors(name):
    """Each key has one spelling: chain_length and replicates sit at the top level."""
    with pytest.raises(cli.ConfigError, match=f"'{name}'.* top level"):
        cli.config_from_document({"scenario": "rmcmc-gaussian", "params": {name: 300}})


def test_top_level_params_are_parsed_and_recorded_as_params(tmp_path, capsys):
    """chain_length and replicates are declared params: describe lists them,
    and metadata.json records them in params."""
    assert cli.main(["describe", "rmcmc-gaussian"]) == 0
    assert '"chain_length": 100000, "replicates": 1' in capsys.readouterr().out
    cfg = cli.config_from_document({"scenario": "rmcmc-gaussian", "chain_length": 400,
                                    "replicates": 2, "seed": 3})
    assert cfg == cli.ScenarioConfig("rmcmc-gaussian", {"step": 1.0, "chain_length": 400,
                                                        "replicates": 2}, 3)
    out = str(tmp_path / "o")
    assert cli.run_scenario(cfg, out) == 0
    meta = json.loads(Path(os.path.join(out, "metadata.json")).read_text())
    assert meta["params"] == cfg.params


@pytest.mark.parametrize("replicates, z", [(1, "4.66"), (4, "5.00")])
def test_rmcmc_mean_check_is_sized_to_a_family_wise_rate(tmp_path, replicates, z):
    """Bonferroni over the replicates at the recorded rate; seed 637586919 has
    z = 4.40 at 10 000 steps, a false alarm of the former fixed 4-se check."""
    doc = {"scenario": "rmcmc-gaussian", "seed": 637586919, "chain_length": 10_000,
           "replicates": replicates}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 0
    report = json.loads(Path(os.path.join(out, "report.json")).read_text())
    assert [a["assertion"] for a in report["assertions"]] == [
        f"replicate {rep} mean within {z} se of 0" for rep in range(replicates)]
    assert report["family_wise_alpha"] == cli.RMCMC_ALPHA
    assert all(a["called"] == "special_cases.rmcmc_chain" and a["relation"] == "=="
               and a["limit"] == 0.0 and a["tol"] > 0.0 for a in report["assertions"])


@pytest.mark.parametrize("replicates", [1, 2, 4, 37, 1000, cli.MAX_COUNT])
def test_mean_check_threshold_is_the_student_t_quantile(replicates):
    """The check's z is t_99's quantile at the Bonferroni level, within 2e-6
    relative of scipy's, for 1 to MAX_COUNT replicates."""
    stats = pytest.importorskip("scipy.stats")
    p = cli.RMCMC_ALPHA / (2 * replicates)
    assert cli._t_quantile(p, 99) == pytest.approx(stats.t.ppf(p, 99), rel=2e-6)


def test_non_finite_report_value_is_a_model_error_that_writes_nothing(tmp_path, capsys,
                                                                       monkeypatch):
    """JSON has no NaN; the run exits 2 before it opens any output file."""
    def nan_runner(cfg, res):
        res.check("holds", "variance.asvar_homogeneous", 0.0, "<=", 0.0)
        res.report["gap"] = float("nan")

    monkeypatch.setitem(cli._REGISTRY, "remark14",
                        cli.ScenarioSpec("remark14", "stub", nan_runner, {}))
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, {"scenario": "remark14"}),
                     "--out-dir", out]) == 2
    assert "runtime model error" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("chain_length", [0, 150])
def test_rmcmc_chain_too_short_for_batch_means_is_config_error(tmp_path, capsys,
                                                              chain_length):
    """Batch means with 100 batches needs at least 200 draws."""
    doc = {"scenario": "rmcmc-gaussian", "chain_length": chain_length}
    out = str(tmp_path / "o")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert "chain_length >= 200" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("scenario", sorted(EXPECTED_SCENARIOS - {"rmcmc-gaussian",
                                                                  "abc-random-refresh"}))
def test_chain_length_is_a_config_error_where_no_chain_runs(tmp_path, capsys, scenario):
    """metadata.json would record a chain length that no runner read."""
    doc = {"scenario": scenario, "chain_length": 5000}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert f"{scenario} takes no params ['chain_length']" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("chain_length, code", [(0, 1), (40, 1), (41, 0)])
def test_abc_chain_too_short_for_its_check_to_fail_is_a_config_error(tmp_path, capsys,
                                                                     chain_length, code):
    """At h = 1 no law lies more than 1 - min(target) = 0.7905 from the target
    in tv, so the tolerance 5 / sqrt(n) would pass any chain of n <= 40 steps."""
    doc = {"scenario": "abc-random-refresh", "chain_length": chain_length}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == code
    assert os.path.exists(os.path.join(out, "report.json")) == (code == 0)
    if code:
        assert "at least the largest possible gap" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_abc_bandwidth_that_leaves_the_target_no_mass_is_a_config_error(tmp_path, capsys):
    """At h <= 0.0129 every ABC weight underflows to 0; the run names h
    instead of failing on the weights it would have divided by 0."""
    doc = {"scenario": "abc-random-refresh", "chain_length": 1000, "params": {"h": 0.01}}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error in scenario 'abc-random-refresh': h = 0.01 ")
    assert err.count("\n") == 1 and not os.path.exists(out)


@pytest.mark.parametrize("existing", [[], ["o"], ["o", "o/sub"], ["o", "o/sub", "o/sub/out"]])
def test_config_error_in_a_runner_removes_only_the_directories_the_run_made(
        tmp_path, existing):
    """Output directory o/sub/out: the directories that existed before the run
    survive the runner's config error, and those the run made are gone."""
    for name in existing:
        (tmp_path / name).mkdir()
    out = str(tmp_path / "o" / "sub" / "out")
    doc = {"scenario": "abc-random-refresh", "chain_length": 40}
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert left == sorted(["cfg.json", *existing])


def test_bad_gmtm_weights_are_a_model_error(tmp_path, capsys, monkeypatch):
    """A zero weight in the n-try model's table: exit 2, naming the factor."""
    toy = toys.gmtm_toy

    def zero_weight_toy(n):
        m = toy(n)
        return m if n == 1 else dataclasses.replace(m, omega=lambda y, v: 0.0)

    monkeypatch.setattr(toys, "gmtm_toy", zero_weight_toy)
    out = str(tmp_path / "o")
    doc = {"scenario": "gmtm-equivalence"}
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 2
    assert "'GMTM omega' evaluated to 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"])
def test_unusable_out_dir_is_a_config_error_before_the_run(tmp_path, capsys, monkeypatch,
                                                          below):
    """An existing file, or a path below one, cannot be the output directory;
    the error comes as one line, before the scenario runs."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    ran = []
    spec = cli._REGISTRY["remark14"]
    monkeypatch.setitem(cli._REGISTRY, "remark14", dataclasses.replace(
        spec, runner=lambda cfg, res: ran.append(cfg) or spec.runner(cfg, res)))
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    assert cli.main(["run", cfg, "--out-dir", str(blocker / below)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert ran == []


@pytest.mark.parametrize("blocked", ["results.csv", "report.json", "metadata.json"])
def test_unwritable_output_is_a_config_error_that_leaves_no_file(tmp_path, capsys, blocked):
    """A directory where an output file goes makes the write fail: the run
    exits 1 with one line, and removes what it wrote before the failure."""
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    assert cli.main(["run", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "cannot write the outputs" in err
    assert os.listdir(out) == [blocked]


def test_simulation_rows_are_labeled_by_how_they_were_made(tmp_path):
    """rmcmc writes one accept_rate row per replicate, ABC one per step kind
    (refresh, move); no row claims batch means unless batch means made its
    standard error."""
    for doc in ({"scenario": "rmcmc-gaussian", "chain_length": 2000, "replicates": 3},
                {"scenario": "abc-random-refresh", "chain_length": 500}):
        out = str(tmp_path / doc["scenario"])
        assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 0
        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            made_by_batch_means = r["metric"] == "mean" and r["stderr"] != "nan"
            assert (r["method"] == "batch_means") == made_by_batch_means, r
        meta = json.loads(Path(os.path.join(out, "metadata.json")).read_text())
        assert "threads" not in meta["params"]
    with open(os.path.join(tmp_path / "rmcmc-gaussian", "results.csv")) as fh:
        rates = {r["replicate"]: float(r["value"]) for r in csv.DictReader(fh)
                 if r["metric"] == "accept_rate"}
    assert set(rates) == {"0", "1", "2"}
    assert all(0.0 < rate < 1.0 for rate in rates.values())
    with open(os.path.join(tmp_path / "abc-random-refresh", "results.csv")) as fh:
        rates = {r["metric"]: (float(r["value"]), r["method"]) for r in csv.DictReader(fh)
                 if r["metric"].startswith("accept_rate")}
    assert set(rates) == {"accept_rate(refresh)", "accept_rate(move)"}
    assert all(0.0 < rate < 1.0 and method == "empirical_frequency"
               for rate, method in rates.values())


def test_remark14_report_names_the_function_it_called(tmp_path, monkeypatch):
    called = []

    def spy(*args, **kw):
        called.append("asvar_homogeneous")
        return variance.asvar_homogeneous(*args, **kw)

    monkeypatch.setattr(cli, "asvar_homogeneous", spy)
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    assert cli.main(["run", cfg, "--out-dir", out]) == 0
    assert called
    report = json.loads(Path(os.path.join(out, "report.json")).read_text())
    named = [a["called"] for a in report["assertions"]]
    assert named == ["variance.asvar_homogeneous"] * 3 * len(
        cli._REGISTRY["remark14"].defaults["epsilons"])


def test_metadata_tolerances_are_the_module_constants(tmp_path):
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    assert cli.main(["run", cfg, "--out-dir", out]) == 0
    meta = json.loads(Path(os.path.join(out, "metadata.json")).read_text())
    assert meta["tolerances"] == {"entry": kernels.ENTRY_TOL,
                                  "spectral": kernels.SPECTRAL_TOL,
                                  "ordering": cli.ORDER_TOL}


def test_metadata_versions_are_the_running_ones(tmp_path):
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, {"scenario": "remark14"})
    assert cli.main(["run", cfg, "--out-dir", out]) == 0
    meta = json.loads(Path(os.path.join(out, "metadata.json")).read_text())
    assert meta["versions"] == {"python": platform.python_version(),
                                "numpy": np.__version__, "varorder": varorder.__version__}


def test_metadata_records_the_solver_of_each_stacked_variance(tmp_path):
    """freeze-vs-refresh keeps each algorithm's gate record: systematic
    refreshment solves on its 3 runs of rows (one per y), freeze and
    random_refresh on the full kernel.  A scenario without stacked variances
    writes no solvers."""
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, {"scenario": "freeze-vs-refresh"}),
                     "--seed", "7", "--out-dir", out]) == 0
    solvers = json.loads(Path(os.path.join(out, "metadata.json")).read_text())["solvers"]
    assert set(solvers) == {"freeze", "systematic", "random_refresh"}
    assert solvers["systematic"]["lumped_states"] == 3
    assert all(r["solver"] == "lu" and r["gate"] == "doeblin" for r in solvers.values())
    assert "lumped_states" not in solvers["freeze"]
    assert "lumped_states" not in solvers["random_refresh"]
    out = str(tmp_path / "p")
    assert cli.main(["run", write_config(tmp_path, {"scenario": "remark14"}),
                     "--out-dir", out]) == 0
    assert "solvers" not in json.loads(Path(os.path.join(out, "metadata.json")).read_text())


@pytest.mark.parametrize("text", [
    '["remark14"]',
    '{"scenario": ["remark14"]}',
    '{"scenario": "remark14", "params": [1, 2]}',
    '{"scenario": "remark14", "seed": "x"}',
    '{"scenario": "remark14", "seed": 2.5}',
    '{"scenario": "rmcmc-gaussian", "chain_length": "abc"}',
    '{"scenario": "remark14", "chain_length": -1}',
    '{"scenario": "rmcmc-gaussian", "replicates": 1.5}',
    '{"scenario": "theorem4-random-pairs", "params": {"pairs": 2.7}}',
    '{"scenario": "gmtm-equivalence", "params": {"tries": "2"}}'])
def test_malformed_configs_are_config_errors(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = str(tmp_path / "o")
    assert cli.main(["run", str(path), "--out-dir", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("scenario, params", [
    ("remark14", {"epsilons": 5}),
    ("remark14", {"epsilons": ["a"]}),
    ("remark14", {"epsilons": [1.5]}),
    ("remark14", {"epsilons": [0.5, True]}),
    ("abc-random-refresh", {"h": "x"}),
    ("abc-random-refresh", {"h": -1}),
    ("rmcmc-gaussian", {"step": 0}),
    ("rmcmc-gaussian", {"step": "x"}),
    ("rmcmc-gaussian", {"step": 10 ** 400}),
    ("gmtm-equivalence", {"tries": 0})])
def test_out_of_range_scenario_params_are_config_errors(tmp_path, capsys, scenario, params):
    doc = {"scenario": scenario, "params": params, "chain_length": 1000}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("scenario, params, message", [
    ("remark14", {"epsilons": 5}, "epsilons must be a list of numbers"),
    ("remark14", {"epsilons": []}, "epsilons must be a list of numbers, not empty"),
    ("remark14", {"epsilons": ["a"]}, "epsilon must be a number in (0.0, 1.0)"),
    ("remark14", {"epsilons": [1.5]}, "epsilon must be a number in (0.0, 1.0)"),
    ("remark14", {"epsilons": [0.5, True]}, "epsilon must be a number in (0.0, 1.0)"),
    ("abc-random-refresh", {"h": "x"}, "h must be a number in (0.0, inf)"),
    ("abc-random-refresh", {"h": -1}, "h must be a number in (0.0, inf)"),
    ("rmcmc-gaussian", {"step": 0}, "step must be a number in (0.0, inf)"),
    ("rmcmc-gaussian", {"step": "x"}, "step must be a number in (0.0, inf)"),
    ("rmcmc-gaussian", {"step": 10 ** 400}, "step must be a number in (0.0, inf)"),
    ("gmtm-equivalence", {"tries": 0}, "tries must be >= 1"),
    ("gmtm-equivalence", {"tries": 6}, "tries must be <= 5, got 6"),
    ("gmtm-equivalence", {"tries": 10 ** 9}, "tries must be <= 5")])
def test_out_of_range_scenario_params_are_named_in_the_config_error(tmp_path, capsys,
                                                                    scenario, params, message):
    """Without a chain_length, which is a config error of its own where no
    chain runs, the error can only come from the param's parser."""
    doc = {"scenario": scenario, "params": params}
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, doc), "--out-dir", out]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_that_checks_no_assertion_fails(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._REGISTRY, "remark14",
                        cli.ScenarioSpec("remark14", "stub", lambda cfg, res: None, {}))
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, {"scenario": "remark14"}),
                     "--out-dir", out]) == 3
    report = json.loads(Path(os.path.join(out, "report.json")).read_text())
    assert report["assertions"] == [] and report["all_hold"] is False


@pytest.mark.parametrize("relation, value, limit, tol, margin, holds", [
    ("<=", 1.0, 1.0, 0.0, 0.0, True), ("<", 1.0, 1.0, 0.0, 0.0, False),
    ("<=", 1.5, 1.0, 0.25, -0.25, False), (">=", 0.75, 1.0, 0.25, 0.0, True),
    (">", 0.75, 1.0, 0.25, 0.0, False), (">", 2.0, 1.0, 0.0, 1.0, True),
    ("==", 1.25, 1.0, 0.5, 0.25, True), ("==", 0.25, 1.0, 0.5, -0.25, False)])
def test_check_computes_margin_and_holds(relation, value, limit, tol, margin, holds):
    res = cli.ScenarioResult()
    res.check("label", "variance.asvar_homogeneous", value, relation, limit, tol)
    assert res.assertions == [{"assertion": "label", "holds": holds,
                               "called": "variance.asvar_homogeneous", "value": value,
                               "relation": relation, "limit": limit, "tol": tol,
                               "margin": margin}]


def test_check_records_a_certificate_and_its_witness():
    res = cli.ScenarioResult()
    pi = kernels.ProbVector([0.5, 0.5])
    for P in ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.25, 0.75]]):
        cert = kernels.detailed_balance_check(kernels.FiniteKernel(P), pi)
        res.check("reversible", "kernels.detailed_balance_check", cert, "<=", 0.0,
                  kernels.ENTRY_TOL)
    passed, failed = res.assertions
    assert passed["holds"] is True and passed["value"] == 0.0 and passed["witness"] is None
    assert failed["holds"] is False and failed["value"] == 0.125
    assert failed["witness"] == (0, 1, 0.125) and failed["margin"] < 0.0


def test_non_finite_check_value_fails_and_is_written_as_null(tmp_path, monkeypatch):
    """None, NaN and +-inf fail whatever the relation, and report.json, still
    encoded with allow_nan=False, holds null for the value and the margin."""
    def runner(cfg, res):
        for value in (None, math.nan, math.inf, -math.inf):
            for relation in ("<=", ">=", "=="):
                res.check(f"{value} {relation}", "variance.asvar_homogeneous", value,
                          relation, 0.0, 1.0)
        res.check("finite", "variance.asvar_homogeneous", 0.0, "<=", 0.0)

    monkeypatch.setitem(cli._REGISTRY, "remark14",
                        cli.ScenarioSpec("remark14", "stub", runner, {}))
    out = str(tmp_path / "o")
    assert cli.main(["run", write_config(tmp_path, {"scenario": "remark14"}),
                     "--out-dir", out]) == 3
    text = Path(os.path.join(out, "report.json")).read_text()
    report = json.loads(text, parse_constant=lambda name: pytest.fail(name))
    *broken, finite = report["assertions"]
    assert len(broken) == 12 and finite["holds"] is True
    assert all(a["holds"] is False and a["value"] is None and a["margin"] is None
               for a in broken)


def test_ergodicity_rows_equal_a_direct_certificate_fit(tmp_path):
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, {"scenario": "ergodicity-certificates", "seed": 3})
    assert cli.main(["run", cfg, "--out-dir", out]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        rows = {(r["algorithm"], r["metric"]): float(r["value"]) for r in csv.DictReader(fh)}
    m = toys.registry_toy()
    Q, pi = exactify.accept_kernel(m), m.joint_pi
    V = kernels.FunctionVector(1.0 / (pi.weights / pi.weights.max()), pi.space)
    for name, P in (("systematic", exactify.systematic_refresh_kernel(m)),
                    ("random_refresh", exactify.random_refresh_kernel(m))):
        PQ = kernels.FiniteKernel(P.matrix @ Q.matrix, pi.space)
        cert = ergodicity.fit_certificate(PQ, pi, V)
        assert (rows[name, "rho"], rows[name, "C"], rows[name, "drift_b"]) == \
            (cert.rho, cert.C, cert.b)
