"""Scenario-driven experiment runner.

Each registry scenario reproduces one of the package's headline comparisons
(exact variance orderings, reversibility certificates, pseudo-marginal
exactness, estimator checks) and emits a results CSV, a metadata JSON and a
comparison report.  Runs are deterministic given the config.

Exit codes: 0 success, 1 config error, 2 runtime model error, 3 an ordering
or certificate assertion failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from . import __version__, exactify, toys
from .ergodicity import SLACK_TOL, UndecidableHorizonError, summability_certificate
from .kernels import (ENTRY_TOL, SPECTRAL_TOL, FiniteKernel, FunctionVector,
                      OrderingCertificate, compose, constant_kernel,
                      detailed_balance_check, identity_kernel, off_diagonal_order_check)
from .pseudo_marginal import abc_random_refresh_model
from .samplers import ChainState, RngStream, random_refresh_step, run_chain
from .special_cases import (gmtm_embedding_model, gmtm_exact_kernel, gmtm_log_ratio,
                            rmcmc_chain)
from .variance import (SPECTRAL_MARGIN, AlternatingModel, SummabilityError,
                       alternating_partial_sum_variance, asvar_alternating,
                       asvar_alternating_stack, asvar_homogeneous,
                       asvar_homogeneous_stack, batch_means_variance)

CSV_COLUMNS = ("scenario", "algorithm", "metric", "value", "stderr", "method",
               "seed", "replicate")
ORDER_TOL = 1e-9
EXACT_TOL = 1e-12
MCWM_MIN_GAP = 1e-6  # the least stationary tv gap that mcwm-bias counts as a bias
# family-wise false-alarm rate of rmcmc-gaussian's mean checks in one run: a 1% chance
# of any false alarm in 1000 runs (280 recorded in BENCH_*.json, 720 more allowed)
RMCMC_ALPHA = 1e-5
# the largest chain_length and count params (README, Command line): by tracemalloc peaks a
# run keeps up to 320 bytes a step (the abc-random-refresh trace keeps every ChainState) and
# 2 kB a replicate, pair or horizon step (rows and assertions), about 1 GB at a maximum
MAX_CHAIN_LENGTH = 3_000_000
MAX_COUNT = 500_000


# Abramowitz & Stegun 26.7.5: the Student t quantile is x + sum_k g_k(x) / df^k at the
# normal quantile x, g_k(x) = sum_i c_i x^(2i+1) / d for the (d, c) of term k
_CORNISH_FISHER = ((4, (1, 1)), (96, (3, 16, 5)), (384, (-15, 17, 19, 3)),
                   (92160, (-945, -1920, 1482, 776, 79)))


def _t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t with df degrees of freedom, by the four-term
    Cornish-Fisher expansion; at df = 99 and p down to 1e-11 it is within
    2e-6 relative of the exact quantile."""
    x = NormalDist().inv_cdf(p)
    return x + sum(sum(c * x ** (2 * i + 1) for i, c in enumerate(cs)) / d / df ** k
                   for k, (d, cs) in enumerate(_CORNISH_FISHER, 1))


class ConfigError(ValueError):
    pass


@dataclass
class Row:
    algorithm: str
    metric: str
    value: float
    stderr: float = float("nan")
    method: str = "closed_form"
    seed: int | None = None  # None: the run's seed
    replicate: int = 0


@dataclass
class ScenarioResult:
    rows: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)  # the records of check
    solvers: dict = field(default_factory=dict)  # {algorithm: solver record} for metadata.json

    def add(self, *args, **kw):
        self.rows.append(Row(*args, **kw))

    def check(self, label: str, called: str, value, relation: str, limit: float,
              tol: float = 0.0):
        """Record whether value (what the package function called returned)
        stands in relation to limit within tol: the check holds when its margin
        is >= 0, or > 0 for the strict "<" and ">".  A certificate's value is
        the figure it compared, and its witness joins the record.  A value that
        is None, NaN or infinite fails, written as null with a null margin."""
        record = {"assertion": label, "holds": False, "called": called, "value": None,
                  "relation": relation, "limit": float(limit), "tol": float(tol),
                  "margin": None}
        if isinstance(value, OrderingCertificate):
            record["witness"], value = value.witness, value.value
        if value is not None and math.isfinite(value):
            below = limit + tol - value
            margin = float({"<=": below, "<": below, ">=": value - limit + tol,
                            ">": value - limit + tol, "==": tol - abs(value - limit)}[relation])
            record.update(value=float(value), margin=margin,
                          holds=margin > 0.0 if relation in ("<", ">") else margin >= 0.0)
        self.assertions.append(record)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict
    seed: int


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    runner: Callable[[ScenarioConfig, ScenarioResult], None]
    defaults: dict = field(default_factory=dict)


_REGISTRY: dict = {}  # {name: ScenarioSpec}, in the order the runners are defined


def _scenario(name: str, description: str, **defaults):
    """Register the decorated runner(cfg, res) as scenario name with the params
    defaults, in the order given; run_scenario passes in the result res to fill."""
    def register(runner):
        _REGISTRY[name] = ScenarioSpec(name, description, runner, defaults)
        return runner
    return register


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _integer(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    """value as an int in [low, high]; anything else is a config error."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = math.nan  # equal to no value
    if whole != value or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not low <= whole <= high:
        bound = f">= {low}" if whole < low else f"<= {high}"
        raise ConfigError(f"{name} must be {bound}, got {whole}")
    return whole


def _number(name: str, value, low: float = 0.0, high: float = math.inf) -> float:
    """value as a float strictly between low and high; anything else is a config error."""
    if type(value) in (int, float) and low < value < high and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be a number in ({low}, {high}), got {value!r}")


def _count(name: str, value) -> int:
    """A count parameter; zero items would make its assertion hold vacuously."""
    return _integer(name, value, 1, MAX_COUNT)


def _tries(name: str, value) -> int:
    """A try count whose GMTM embedding on the toy's support, with
    |support|^tries joint states, fits the exact layer."""
    tries = _integer(name, value, low=1)
    states, cap = len(toys.gmtm_toy(1).support), 1
    while states ** (cap + 1) <= exactify.MAX_JOINT_STATES:
        cap += 1
    if tries > cap:
        raise ConfigError(f"{name} must be <= {cap}, got {tries}: the embedding has "
                          f"{states}^{name} joint states, at most {exactify.MAX_JOINT_STATES}")
    return tries


def _epsilons(name: str, value) -> list:
    """A list of numbers in (0, 1); an empty one would check nothing."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a list of numbers, not empty, got {value!r}")
    return [_number("epsilon", e, high=1.0) for e in value]


# one parser per scenario parameter name; positive numbers go through _number, and each
# runner of a chain checks the least chain_length its own checks need
PARAM_PARSERS = {"horizon": _count, "pairs": _count, "functions": _count, "tries": _tries,
                 "step": _number, "h": _number, "epsilons": _epsilons, "replicates": _count,
                 "chain_length": lambda name, value: _integer(name, value, high=MAX_CHAIN_LENGTH)}
# params a config writes at its top level, beside "params", and nowhere else
TOP_LEVEL_PARAMS = ("chain_length", "replicates")


def _stationary_y_tv_gap(K: FiniteKernel, m: exactify.FiniteAugmentedModel) -> float:
    """Total variation between the y-marginal of K's stationary law and pi_star."""
    pi_hat = exactify.stationary_distribution(K)
    return exactify.total_variation(exactify.y_marginal_of(pi_hat, m), m.pi_star_vector)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

@_scenario("remark14",
           "Exact asymptotic variances of the two-state counterexample product chains: "
           "holding the chain beats full randomization despite the covariance ordering.",
           epsilons=[0.1, 0.5, 0.9])
def _run_remark14(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    pi = toys.uniform_two_state()
    f = toys.identity_function()
    I = identity_kernel(pi.space)
    Pi = constant_kernel(pi)
    for eps in cfg.params["epsilons"]:
        Q0 = toys.q0_kernel(eps)
        v0 = asvar_homogeneous(compose(I, Q0), pi, f).value
        v1 = asvar_homogeneous(compose(Pi, Q0), pi, f).value
        res.add("hold-then-move", f"asvar(eps={eps})", v0)
        res.add("randomize-then-move", f"asvar(eps={eps})", v1)
        called = "variance.asvar_homogeneous"
        res.check(f"asvar equals eps/(2-eps) at eps={eps}", called, v0, "==",
                  eps / (2.0 - eps), EXACT_TOL)
        res.check(f"full-randomization asvar equals Var(f)=1 at eps={eps}", called, v1, "==",
                  1.0, EXACT_TOL)
        res.check(f"holding beats randomizing at eps={eps}", called, v0, "<", v1)
    res.report["note"] = ("covariance-ordered pairs need not be ordered in "
                          "asymptotic variance once the companion kernels differ")


@_scenario("flip-counterexample",
           "Periodic flip companion: the summability precondition fails while the "
           "partial-sum variance still vanishes.", horizon=40)
def _run_flip(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    pi = toys.uniform_two_state()
    f = toys.identity_function()
    flip = toys.flip_kernel()
    m = AlternatingModel(flip, flip, pi, f)
    try:  # an accepted pair fails the check with its gate's bound on rho
        rho = asvar_alternating(m).diagnostics["spectral_radius_bound"]
    except SummabilityError as exc:
        rho = exc.spectral_radius
        res.add("flip-flip", "spectral_radius", rho)
    res.check("summability precondition rejected", "variance.asvar_alternating", rho, ">=",
              1.0 - SPECTRAL_MARGIN)
    variances = alternating_partial_sum_variance(m, cfg.params["horizon"]).tolist()
    for n, var_n in enumerate(variances[1:], 1):
        res.add("flip-flip", f"partial_sum_variance(n={n})", var_n)
        res.check(f"Var(S_n)/n <= 1/n at n={n}", "variance.alternating_partial_sum_variance",
                  var_n, "<=", 1.0, EXACT_TOL)
    res.report["max_partial_sum_variance"] = max(variances[1:])
    res.report["note"] = ("the partial-sum variance vanishes even though the "
                          "geometric-summability condition fails: the condition "
                          "is sufficient, not necessary")


@_scenario("theorem4-random-pairs",
           "Random covariance-ordered kernel quadruples: the dominating pair never "
           "has larger exact alternating variance.", pairs=200)
def _run_theorem4_pairs(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    n_pairs = cfg.params["pairs"]
    rng = RngStream("theorem4-random-pairs", cfg.seed).generator
    by_size = {}
    for _ in range(n_pairs):
        n = int(rng.integers(2, 7))
        by_size.setdefault(n, []).append(toys.lazy_quadruple_draws(rng, n))
    min_margin = math.inf
    for group in by_size.values():  # one stacked call per size: [dominated, dominating]
        P0, P1, Q0, Q1, pi, f = toys.lazy_quadruples(group)
        (v0, v1), *_ = asvar_alternating_stack(np.stack([P0, P1]), np.stack([Q0, Q1]), pi, f)
        min_margin = min(min_margin, float(np.min(v0 - v1)))
    res.add("alternating", "min_variance_margin", min_margin)
    res.add("alternating", "pairs_checked", float(n_pairs))
    res.check("dominating pair never increases the asymptotic variance",
              "variance.asvar_alternating_stack", min_margin, ">=", 0.0, ORDER_TOL)


def _check_freeze_orderings(res: ScenarioResult, m, cfg: ScenarioConfig,
                            algorithms=("freeze", "systematic", "random_refresh")):
    """Exact per-algorithm variances for random functions of y, and the check
    of each refreshment flavor's worst margin against the freeze baseline."""
    rng = RngStream(cfg.scenario, cfg.seed).generator
    F_y = rng.normal(size=(cfg.params["functions"], m.Y.size))
    F = np.repeat(F_y, m.U.size, axis=1)  # each function of y lifted to (y, u)
    pi = m.joint_pi
    vals = {}
    for a in algorithms:
        vals[a], _, res.solvers[a] = asvar_homogeneous_stack(
            exactify.extract_kernel(a, m).kernel, pi, F)
        res.add(a, "asvar(f0)", float(vals[a][0]))
    for a in algorithms[1:]:
        margin = float(np.min(vals["freeze"] - vals[a]))
        res.add(a, "min_margin_vs_freeze", margin)
        res.check(f"asvar({a}) <= asvar(freeze)", "variance.asvar_homogeneous_stack", margin,
                  ">=", 0.0, ORDER_TOL)


@_scenario("freeze-vs-refresh",
           "Registry toy: systematic and random refreshment never beat freezing "
           "in asymptotic variance, exactly.", functions=20)
def _run_freeze_vs_refresh(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    _check_freeze_orderings(res, toys.registry_toy(), cfg)


@_scenario("random-refresh",
           "Random refreshment is reversible for the augmented target, exact for "
           "the marginal, and at most as variable as freezing.", functions=20)
def _run_random_refresh(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    m = toys.registry_toy()
    ext = exactify.extract_kernel("random_refresh", m)
    y_kernel = exactify.marginal_kernel(ext, m)
    cert = detailed_balance_check(y_kernel, m.pi_star_vector)
    res.check("random-refreshment y-output is reversible for the marginal",
              "kernels.detailed_balance_check", cert, "<=", 0.0, ENTRY_TOL)
    conj = toys.conjugate_toy()
    joint_cert = detailed_balance_check(
        exactify.extract_kernel("random_refresh", conj).kernel, conj.joint_pi)
    res.check("joint kernel is reversible on the refresh-conjugate toy",
              "kernels.detailed_balance_check", joint_cert, "<=", 0.0, ENTRY_TOL)
    gap = _stationary_y_tv_gap(ext.kernel, m)
    res.add("random_refresh", "stationary_y_tv_gap", gap)
    res.check("stationary y-marginal equals the target", "exactify.stationary_distribution",
              gap, "<=", 0.0, EXACT_TOL)
    _check_freeze_orderings(res, m, cfg, algorithms=("freeze", "random_refresh"))


@_scenario("gimh-exactness",
           "Finite importance-sampling toy: the frozen-sample chain targets the "
           "marginal exactly.")
def _run_gimh_exactness(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    m, _ = toys.finite_gimh_toy()
    for algorithm in ("freeze", "random_refresh"):
        gap = _stationary_y_tv_gap(exactify.extract_kernel(algorithm, m).kernel, m)
        res.add(algorithm, "stationary_y_tv_gap", gap)
        res.check(f"{algorithm} y-marginal is exactly the target",
                  "exactify.stationary_distribution", gap, "<=", 0.0, EXACT_TOL)


@_scenario("mcwm-bias",
           "Unconditional reweighted refreshment is biased: positive stationary "
           "total-variation gap on the registry toy.")
def _run_mcwm_bias(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    m = toys.registry_toy()
    gap = _stationary_y_tv_gap(exactify.extract_kernel("noisy", m).kernel, m)
    res.add("noisy", "stationary_y_tv_gap", gap)
    res.check("unconditional refreshment is biased on this model",
              "exactify.stationary_distribution", gap, ">", MCWM_MIN_GAP)
    res.report["tv_gap"] = gap


@_scenario("marginal-mh-peskun",
           "Marginal MH with the integrated proposal dominates systematic "
           "refreshment off-diagonal and in asymptotic variance.", functions=20)
def _run_marginal_mh_peskun(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    m = toys.registry_toy()
    sys_y = exactify.marginal_kernel(exactify.extract_kernel("systematic", m), m)
    mh_y = exactify.extract_kernel("marginal_mh", m).kernel
    cert = off_diagonal_order_check(sys_y, mh_y)
    res.check("marginal MH dominates systematic refreshment off-diagonal",
              "kernels.off_diagonal_order_check", cert, "<=", 0.0, ENTRY_TOL)
    rng = RngStream(cfg.scenario, cfg.seed).generator
    F = rng.normal(size=(cfg.params["functions"], m.Y.size))
    v = {}
    for a, K in (("systematic", sys_y), ("marginal_mh", mh_y)):
        v[a], _, res.solvers[a] = asvar_homogeneous_stack(K, m.pi_star_vector, F)
    min_margin = float(np.min(v["systematic"] - v["marginal_mh"]))
    res.add("marginal_mh", "min_margin_vs_systematic", min_margin)
    res.check("asvar(marginal MH) <= asvar(systematic refreshment)",
              "variance.asvar_homogeneous_stack", min_margin, ">=", 0.0, ORDER_TOL)


@_scenario("gmtm-equivalence",
           "Multiple-try Metropolis equals its systematic-refreshment embedding "
           "entrywise; one try collapses to standard MH.", tries=2)
def _run_gmtm_equivalence(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    m1 = toys.gmtm_toy(1)
    worst = max(abs(gmtm_log_ratio(m1, y, (yh,), yh, (y,))
                    - (m1.log_pi_star(yh) + m1.log_rcheck(yh, y)
                       - m1.log_pi_star(y) - m1.log_rcheck(y, yh)))
                for y in m1.support for yh in m1.support)
    res.add("gmtm", "n1_vs_mh_max_gap", worst)
    res.check("single-try acceptance collapses to standard MH",
              "special_cases.gmtm_log_ratio", worst, "<=", 0.0, EXACT_TOL)
    mn = toys.gmtm_toy(cfg.params["tries"])
    emb_model = gmtm_embedding_model(mn)
    emb_y = exactify.marginal_kernel(exactify.extract_kernel("systematic", emb_model), emb_model)
    gap = float(np.max(np.abs(gmtm_exact_kernel(mn).matrix - emb_y.matrix)))
    res.add("gmtm", "kernel_vs_embedding_max_gap", gap)
    res.check("multiple-try kernel equals its refreshment embedding",
              "special_cases.gmtm_exact_kernel", gap, "<=", 0.0, EXACT_TOL)


@_scenario("rmcmc-gaussian",
           "Involution-form random-walk sampler on a standard Gaussian: moment "
           "recovery with batch-means error bars.",
           step=1.0, chain_length=100_000, replicates=1)
def _run_rmcmc_gaussian(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    n, replicates = cfg.params["chain_length"], cfg.params["replicates"]
    if n < 200:  # batch means with its default 100 batches needs two draws per batch
        raise ConfigError(f"rmcmc-gaussian needs chain_length >= 200, got {n}")
    model = toys.gaussian_rmcmc_model(step=cfg.params["step"])
    # Bonferroni over the replicates: a correct chain fails some check of the run
    # with probability RMCMC_ALPHA; for n a multiple of 100, mean / se_mean is the
    # one-sample t statistic of batch_means_variance's 100 batch means (99 dof)
    z = -_t_quantile(RMCMC_ALPHA / (2 * replicates), 99)
    for rep in range(replicates):
        seed = cfg.seed + rep
        out, accepted = rmcmc_chain(model, 0.0, n, RngStream("rmcmc", seed))
        mean = float(out.mean())
        se_mean = math.sqrt(batch_means_variance(out).value / n)
        res.add("rmcmc", "mean", mean, se_mean, "batch_means", seed, rep)
        res.add("rmcmc", "variance", float(out.var()), method="sample_moment",
                seed=seed, replicate=rep)
        res.add("rmcmc", "accept_rate", accepted / n, method="empirical_frequency",
                seed=seed, replicate=rep)
        res.check(f"replicate {rep} mean within {z:.2f} se of 0", "special_cases.rmcmc_chain",
                  mean, "==", 0.0, z * se_mean)
    res.report["family_wise_alpha"] = RMCMC_ALPHA


@_scenario("abc-random-refresh",
           "Discrete ABC toy run with random refreshment; empirical law checked "
           "against the exactly computed smoothed posterior.", h=1.0, chain_length=100_000)
def _run_abc_random_refresh(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    try:  # a bandwidth so small that the target has no mass is refused like a short chain
        abc, log_prior, prop, target = toys.abc_toy(cfg.params["h"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = abc_random_refresh_model(abc, log_prior, prop)
    n = cfg.params["chain_length"]
    tol = max(5.0 / math.sqrt(max(n, 1)), 0.02)
    widest = 1.0 - float(target.weights.min())  # the largest tv gap any law has from target
    if tol >= widest:
        raise ConfigError(f"chain_length {n} gives tv tolerance {tol!r}, "
                          f"at least the largest possible gap {widest!r}")
    rng = RngStream("abc-random-refresh", cfg.seed)
    init = ChainState(y=0.0, u=abc.simulator(rng.generator, 0.0))
    trace = run_chain(random_refresh_step, model, init, n, rng)
    ys = list(target.space.labels)
    vals = trace.values(lambda s: s.y)
    freqs = np.array([np.mean(vals == y) for y in ys])
    gap = 0.5 * float(np.abs(freqs - target.weights).sum())
    for y, fr, tg in zip(ys, freqs, target.weights):
        res.add("abc_random_refresh", f"freq(y={y})", float(fr),
                method="empirical_frequency")
        res.add("abc_random_refresh", f"target(y={y})", float(tg))
    res.add("abc_random_refresh", "empirical_tv_gap", gap,
            method="empirical_frequency")
    for kind, (accepted, proposed) in trace.accept_counts.items():
        res.add("abc_random_refresh", f"accept_rate({kind})", accepted / proposed,
                method="empirical_frequency")
    res.check("empirical law matches the exact smoothed posterior",
              "samplers.random_refresh_step", gap, "<=", 0.0, tol)


@_scenario("ergodicity-certificates",
           "Drift and geometric-decay certificates plus covariance bounds for the "
           "registry toy's refreshment chains.", horizon=50)
def _run_ergodicity(cfg: ScenarioConfig, res: ScenarioResult) -> None:
    m = toys.registry_toy()
    Q = exactify.accept_kernel(m)
    pi = m.joint_pi
    V = FunctionVector(1.0 / (pi.weights / pi.weights.max()), pi.space)
    rng = RngStream("ergodicity-certificates", cfg.seed).generator
    f = FunctionVector(rng.normal(size=pi.space.size), pi.space)
    chains = {"systematic": exactify.systematic_refresh_kernel(m),
              "random_refresh": exactify.random_refresh_kernel(m)}
    for name, P in chains.items():
        try:
            report = summability_certificate(P, Q, pi, f, V, n_horizon=cfg.params["horizon"])
        except UndecidableHorizonError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        cert = report.certificate
        res.add(name, "rho", cert.rho)
        res.add(name, "C", cert.C)
        res.add(name, "drift_b", cert.b)
        res.add(name, "min_bound_slack", report.min_bound_slack)
        res.check(f"{name}: drift and covariance bounds hold",
                  "ergodicity.summability_certificate", report.min_bound_slack, ">=", 0.0,
                  SLACK_TOL)
        res.report[name] = report.to_document()


# ---------------------------------------------------------------------------
# configs / plumbing
# ---------------------------------------------------------------------------

def load_config(path: str, seed_override=None) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON and UTF-8 decoding
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_document(doc, seed_override=seed_override)


def config_from_document(doc: dict, seed_override=None) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    name = doc.get("scenario")
    if not isinstance(name, str) or name not in _REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}; known scenarios: "
                          f"{', '.join(sorted(_REGISTRY))}")
    keys = ("scenario", "seed", "params", *TOP_LEVEL_PARAMS)
    unknown = sorted(set(doc) - set(keys), key=str)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; a config takes {', '.join(keys)}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, got {params!r}")
    misplaced = sorted(set(params) & set(TOP_LEVEL_PARAMS))
    if misplaced:
        raise ConfigError(f"{misplaced} go at the top level of the config, not in params")
    params = {**params, **{k: doc[k] for k in TOP_LEVEL_PARAMS if k in doc}}
    spec = _REGISTRY[name]
    unknown = sorted(set(params) - set(spec.defaults), key=str)
    if unknown:
        raise ConfigError(f"{name} takes no params {unknown}; its params: {sorted(spec.defaults)}")
    params = {k: PARAM_PARSERS[k](k, params.get(k, v)) for k, v in spec.defaults.items()}
    seed = doc.get("seed", 0) if seed_override is None else seed_override
    return ScenarioConfig(scenario=name, params=params, seed=_integer("seed", seed, low=0))


def run_scenario(cfg: ScenarioConfig, out_dir: str, threads: int = 1) -> int:
    """Run one scenario and write its outputs; returns the exit code.

    ``threads`` has no effect and is kept only for callers that still pass it:
    replicates run one after another.
    """
    spec = _REGISTRY[cfg.scenario]
    started = time.time()
    made, path = [], os.path.abspath(out_dir)  # the directories this run makes, deepest first
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory: {exc}") from exc
    written = []  # the files this run opened
    try:
        result = ScenarioResult()
        spec.runner(cfg, result)
        # a run that checked nothing has shown nothing: it fails like a broken assertion
        all_hold = bool(result.assertions) and all(a["holds"] for a in result.assertions)
        report = {"scenario": cfg.scenario, "assertions": result.assertions,
                  "all_hold": all_hold, **result.report}
        meta = {"scenario": cfg.scenario, "seed": cfg.seed, "rng": "numpy-pcg64",
                "params": cfg.params,
                "tolerances": {"entry": ENTRY_TOL, "spectral": SPECTRAL_TOL,
                               "ordering": ORDER_TOL},
                "versions": {"python": platform.python_version(),
                             "numpy": np.__version__, "varorder": __version__},
                **({"solvers": result.solvers} if result.solvers else {}),
                "elapsed_seconds": time.time() - started}
        # encoded before any file is opened: a non-finite value leaves no half file
        texts = {name: json.dumps(doc, indent=2, allow_nan=False)
                 for name, doc in (("report.json", report), ("metadata.json", meta))}
        try:
            with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
                written.append(fh.name)
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for r in sorted(result.rows, key=lambda r: (r.algorithm, r.replicate, r.metric)):
                    writer.writerow([cfg.scenario, r.algorithm, r.metric,
                                     repr(r.value), repr(r.stderr), r.method,
                                     cfg.seed if r.seed is None else r.seed, r.replicate])
            for name, text in texts.items():
                with open(os.path.join(out_dir, name), "w") as fh:
                    written.append(fh.name)
                    fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write the outputs: {exc}") from exc
    except ValueError:  # config, model and write errors alike: the run leaves nothing behind
        for path in written:
            os.remove(path)
        for path in made:
            os.rmdir(path)
        raise
    return 0 if all_hold else 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like config errors; argparse's own code 2 would
    read as a model error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varorder",
        description="Exact and simulated comparisons of data-augmentation "
                    "MCMC refreshment schemes.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a JSON config")
    run_p.add_argument("config", help="path to the scenario config JSON")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seed")
    run_p.add_argument("--out-dir", default=".",
                       help="directory for results.csv / report.json / metadata.json")
    sub.add_parser("list", help="list registry scenarios")
    desc_p = sub.add_parser("describe", help="describe one scenario")
    desc_p.add_argument("scenario")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(_REGISTRY):
            print(name)
        return 0
    if args.command == "describe":
        spec = _REGISTRY.get(args.scenario)
        if spec is None:
            print(f"unknown scenario {args.scenario!r}; known scenarios: "
                  f"{', '.join(sorted(_REGISTRY))}", file=sys.stderr)
            return 1
        print(spec.name)
        print(spec.description)
        print(f"default params: {json.dumps(spec.defaults)}")
        return 0
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_scenario(cfg, args.out_dir)
    except ConfigError as exc:
        print(f"config error in scenario {cfg.scenario!r}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the package's model errors are all ValueErrors
        print(f"runtime model error in scenario {cfg.scenario!r}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
