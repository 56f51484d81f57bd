"""The benchmark's workloads.

Each workload is built from a seed (input generation and model
construction, timed as set-up), then runs ops.  ``op(i)`` is the timed
program work of op ``i``; ``check(i, out)`` verifies its outputs afterwards,
outside the timed region, and returns a list of problems (empty when the
outputs are correct).  Op ``i`` depends only on the seed and ``i``.

Why each workload exists, and which layer metrics it moves, is written down
in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from varorder import (cli, ergodicity, exactify, kernels, pseudo_marginal,
                      samplers, special_cases, toys, variance)

# Monte Carlo checks accept |frequency - exact probability| up to Z_BOUND
# exact standard errors plus BIAS_SLACK / steps for the non-stationary start.
Z_BOUND = 5.0
BIAS_SLACK = 20.0


def derive_seed(seed: int, *keys) -> int:
    """A 32-bit seed for one named input, determined by the run seed."""
    tags = [int.from_bytes(str(k).encode(), "little") % 2**32 for k in keys]
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _scenario_problems(label: str, rc: int, out_dir: str) -> list:
    if rc != 0:
        return [f"{label}: exit code {rc}"]
    with open(os.path.join(out_dir, "report.json")) as fh:
        if json.load(fh).get("all_hold") is not True:
            return [f"{label}: report.json all_hold is not true"]
    return []


def _indicator_asvar(K, pi, index_of_state) -> np.ndarray:
    """Exact asymptotic variance of 1{state in class c}, for every class c."""
    classes = np.asarray(index_of_state)
    out = []
    for c in range(int(classes.max()) + 1):
        f = kernels.FunctionVector((classes == c).astype(float), K.space)
        out.append(variance.asvar_homogeneous(K, pi, f).value)
    return np.array(out)


def _within_mc_bound(freqs, target, asvar, steps: int) -> bool:
    bound = Z_BOUND * np.sqrt(asvar / steps) + BIAS_SLACK / steps
    return bool(np.all(np.abs(np.asarray(freqs) - target) <= bound))


class Workload:
    name = ""
    nominal_op_s = 1.0   # expected seconds per op at full size
    steps_per_op = 0     # chain steps in one op

    def __init__(self, seed: int, size: str, scratch: str):
        self.tiny = size == "tiny"
        self.records = {}  # figures printed beside the metrics

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list:
        raise NotImplementedError


class RegistryExact(Workload):
    """One op: one pass over the ten exact registry scenarios through
    ``cli.run_scenario``, each at its default config and a fresh seed."""

    name = "registry-exact"
    nominal_op_s = 0.4
    SCENARIOS = ("remark14", "flip-counterexample", "theorem4-random-pairs",
                 "freeze-vs-refresh", "random-refresh", "gimh-exactness",
                 "mcwm-bias", "marginal-mh-peskun", "gmtm-equivalence",
                 "ergodicity-certificates")
    TINY_PARAMS = {"flip-counterexample": {"horizon": 4},
                   "theorem4-random-pairs": {"pairs": 4},
                   "freeze-vs-refresh": {"functions": 2},
                   "random-refresh": {"functions": 2},
                   "marginal-mh-peskun": {"functions": 2},
                   "ergodicity-certificates": {"horizon": 4}}

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.base_seed = derive_seed(seed, self.name) % 2**30
        self.docs = {}
        self.dirs = {}
        for name in self.SCENARIOS:
            doc = {"scenario": name}
            if self.tiny and name in self.TINY_PARAMS:
                doc["params"] = self.TINY_PARAMS[name]
            self.docs[name] = doc
            self.dirs[name] = os.path.join(scratch, name)
            os.makedirs(self.dirs[name], exist_ok=True)

    def op(self, i):
        codes = {}
        for name, doc in self.docs.items():
            cfg = cli.config_from_document({**doc, "seed": self.base_seed + i})
            codes[name] = cli.run_scenario(cfg, self.dirs[name])
        return codes

    def check(self, i, codes):
        problems = []
        for name, rc in codes.items():
            problems += _scenario_problems(name, rc, self.dirs[name])
        return problems


def random_augmented_model(rng, ny: int, nu: int) -> exactify.FiniteAugmentedModel:
    """Dense random finite model in the (rcheck, w) form, all entries positive."""
    pi = rng.uniform(0.2, 1.0, ny)
    rcheck = rng.uniform(0.05, 1.0, (ny, nu))
    rcheck /= rcheck.sum(axis=1, keepdims=True)
    raw_w = rng.uniform(0.2, 2.0, (ny, nu))
    w = raw_w / (rcheck * raw_w).sum(axis=1, keepdims=True)
    S = rng.uniform(0.05, 1.0, (ny, nu, ny))
    S /= S.sum(axis=2, keepdims=True)
    T = rng.uniform(0.05, 1.0, (ny, nu, ny, nu))
    T /= T.sum(axis=3, keepdims=True)
    return exactify.FiniteAugmentedModel(
        Y=kernels.StateSpace(list(range(ny))), U=kernels.StateSpace(list(range(nu))),
        pi_star=pi / pi.sum(), S=S, T=T, rcheck=rcheck, w=w)


def random_reversible_kernel(rng, n: int):
    """Dense random pi-reversible kernel (Metropolis construction, vectorised)."""
    pi = rng.uniform(0.2, 1.0, n)
    pi /= pi.sum()
    K = rng.uniform(0.05, 1.0, (n, n))
    K /= K.sum(axis=1, keepdims=True)
    P = K * np.minimum(1.0, (pi[None, :] * K.T) / (pi[:, None] * K))
    np.fill_diagonal(P, 0.0)
    P[np.diag_indices(n)] = 1.0 - P.sum(axis=1)
    space = kernels.StateSpace(list(range(n)))
    return kernels.FiniteKernel(P, space), kernels.ProbVector(pi, space)


class ExactLarge(Workload):
    """One op: one random finite augmented model at the joint-state cap
    (shapes alternate 16x16 / 32x8), every algorithm's kernel, stationary
    laws, homogeneous and alternating variances and a certificate, plus one
    random reversible kernel at 1024 states."""

    name = "exact-large"
    nominal_op_s = 5.0
    ORDERED = ("freeze", "systematic", "random_refresh")
    N_FUNCTIONS = 3
    SERIES_LAGS = 400

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        shapes = ((4, 4), (8, 2)) if self.tiny else ((16, 16), (32, 8))
        big_n = 32 if self.tiny else 1024
        rng = np.random.default_rng(derive_seed(seed, self.name))
        # a pool of inputs; op i uses entry i modulo the pool size
        self.models = []
        for k in range(4):
            m = random_augmented_model(rng, *shapes[k % 2])
            fs = [kernels.FunctionVector(np.repeat(rng.normal(size=m.Y.size), m.U.size),
                                         m.joint_space)
                  for _ in range(self.N_FUNCTIONS)]
            self.models.append((m, m.joint_pi, fs))
        self.big = []
        for _ in range(2):
            K, pi = random_reversible_kernel(rng, big_n)
            self.big.append((K, pi, kernels.FunctionVector(rng.normal(size=big_n), K.space)))
        self.records = {"min_margin_freeze_minus_systematic": math.inf,
                        "min_margin_freeze_minus_random_refresh": math.inf}

    def op(self, i):
        m, jp, fs = self.models[i % len(self.models)]
        ks = {a: exactify.extract_kernel(a, m).kernel for a in exactify.ALGORITHMS}
        laws = {a: exactify.stationary_distribution(K) for a, K in ks.items()}
        asvars = {a: [variance.asvar_homogeneous(ks[a], jp, f).value for f in fs]
                  for a in self.ORDERED}
        P = exactify.random_refresh_kernel(m)
        alt_model = variance.AlternatingModel(P, ks["freeze"], jp, fs[0])
        alt = variance.asvar_alternating(alt_model)
        PQ = kernels.FiniteKernel(P.matrix @ ks["freeze"].matrix, jp.space)
        V = kernels.FunctionVector(jp.weights.max() / jp.weights, jp.space)
        cert = ergodicity.fit_certificate(PQ, jp, V)
        K, pi, f = self.big[i % len(self.big)]
        big_law = exactify.stationary_distribution(K)
        big_asvar = variance.asvar_homogeneous(K, pi, f)
        return {"laws": laws, "asvars": asvars, "alt_model": alt_model,
                "alt": alt.value, "rho": cert.rho, "big_law": big_law,
                "big_asvar": big_asvar.value}

    def check(self, i, out):
        _, jp, _ = self.models[i % len(self.models)]
        problems = []
        for a in self.ORDERED:
            gap = float(np.max(np.abs(out["laws"][a].weights - jp.weights)))
            if not gap <= kernels.ENTRY_TOL:
                problems.append(f"{a}: stationary law differs from joint_pi by {gap!r}")
        series = variance.truncated_autocov_series(out["alt_model"], self.SERIES_LAGS)
        tol = max(series.diagnostics["remainder_bound"], kernels.SPECTRAL_TOL)
        if not abs(out["alt"] - series.value) <= tol:
            problems.append(f"asvar_alternating {out['alt']!r} vs series "
                            f"{series.value!r}, tol {tol!r}")
        _, pi, _ = self.big[i % len(self.big)]
        gap = float(np.max(np.abs(out["big_law"].weights - pi.weights)))
        if not gap <= kernels.ENTRY_TOL:
            problems.append(f"1024-state stationary law differs by {gap!r}")
        if not (0.0 < out["rho"] < 1.0 and math.isfinite(out["big_asvar"])):
            problems.append("certificate rho or large asvar out of range")
        v = out["asvars"]
        for a in ("systematic", "random_refresh"):
            key = f"min_margin_freeze_minus_{a}"
            margin = min(x - y for x, y in zip(v["freeze"], v[a]))
            self.records[key] = min(self.records[key], margin)
        return problems


def gmtm_model(rng, tries: int) -> special_cases.GmtmModel:
    """Random three-state multiple-try model with a finite support."""
    support = ("a", "b", "c")
    pi = rng.uniform(0.2, 1.0, 3)
    pi /= pi.sum()
    rk = rng.uniform(0.1, 1.0, (3, 3))
    rk /= rk.sum(axis=1, keepdims=True)
    index = {s: k for k, s in enumerate(support)}
    return special_cases.GmtmModel(
        log_pi_star=lambda y: math.log(pi[index[y]]),
        rcheck_sample=lambda gen, y: support[gen.choice(3, p=rk[index[y]])],
        log_rcheck=lambda y, v: math.log(rk[index[y], index[v]]),
        omega=lambda y, v: pi[index[v]] + 0.1 * (y == v),
        n=tries, support=support)


def gimh_importance_model():
    """The finite GIMH toy's tables as an importance-sampling model."""
    _, tab = toys.finite_gimh_toy()
    pi_bar, q, s = tab["pi_bar"], tab["q"], tab["s_prop"]
    model = pseudo_marginal.ImportanceModel(
        log_joint=lambda y, v: math.log(pi_bar[y, v]),
        q_sample=lambda gen, y: int(gen.choice(2, p=q[y])),
        log_q=lambda y, v: math.log(q[y, v]), N=tab["N"])
    proposal = samplers.MarginalProposal(
        sample=lambda gen, y: int(gen.choice(2, p=s[y])),
        log_density=lambda y, yh: math.log(s[y, yh]))
    return model, proposal


class SimChains(Workload):
    """One op: the r-MCMC (4 replicates, 2 threads) and ABC scenarios through
    ``cli.run_scenario``, GIMH freeze and random-refresh chains through
    ``samplers.run_chain``, and a 4-try GMTM chain.  Every op replays the
    same seeded chains, so op outputs must also agree bit for bit."""

    name = "sim-chains"
    nominal_op_s = 0.8
    GMTM_TRIES = 4

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        # rmcmc batch means need at least 200 steps per replicate
        self.len_rmcmc, self.len_abc, self.len_gimh, self.len_gmtm = (
            (200, 200, 100, 100) if self.tiny else (10_000, 2_000, 800, 800))
        self.steps_per_op = (4 * self.len_rmcmc + self.len_abc
                             + 2 * self.len_gimh + self.len_gmtm)
        self.seeds = {k: derive_seed(seed, self.name, k) % 2**30
                      for k in ("rmcmc", "abc", "freeze", "random_refresh", "gmtm")}
        self.docs = {
            "rmcmc-gaussian": {"scenario": "rmcmc-gaussian", "seed": self.seeds["rmcmc"],
                               "chain_length": self.len_rmcmc, "replicates": 4},
            "abc-random-refresh": {"scenario": "abc-random-refresh",
                                   "seed": self.seeds["abc"],
                                   "chain_length": self.len_abc}}
        self.dirs = {name: os.path.join(scratch, name) for name in self.docs}
        for d in self.dirs.values():
            os.makedirs(d, exist_ok=True)
        self.importance, proposal = gimh_importance_model()
        # steppers are looked up by name at call time, so the tracer sees them
        self.gimh_models = {
            "freeze": ("freeze_step",
                       pseudo_marginal.gimh_as_freeze(self.importance, proposal)),
            "random_refresh": ("random_refresh_step",
                               pseudo_marginal.gimh_as_random_refresh(self.importance,
                                                                      proposal))}
        # exact targets and asymptotic variances behind the Monte Carlo bounds
        finite, _ = toys.finite_gimh_toy()
        y_of_joint = np.repeat(np.arange(finite.Y.size), finite.U.size)
        self.gimh_exact = {
            a: (finite.pi_star,
                _indicator_asvar(exactify.extract_kernel(a, finite).kernel,
                                 finite.joint_pi, y_of_joint))
            for a in self.gimh_models}
        self.gmtm = gmtm_model(np.random.default_rng(self.seeds["gmtm"]), self.GMTM_TRIES)
        ky = special_cases.gmtm_exact_kernel(self.gmtm)
        pi_y = np.array([math.exp(self.gmtm.log_pi_star(s)) for s in self.gmtm.support])
        self.gmtm_exact = (pi_y, _indicator_asvar(ky, kernels.ProbVector(pi_y, ky.space),
                                                  np.arange(3)))
        self.first = None

    def op(self, i):
        out = {}
        for name, doc in self.docs.items():
            threads = 2 if name == "rmcmc-gaussian" else 1
            out[name] = cli.run_scenario(cli.config_from_document(doc), self.dirs[name],
                                         threads=threads)
        for a, (stepper, model) in self.gimh_models.items():
            rng = samplers.RngStream(f"gimh-{a}", self.seeds[a])
            _, vs0 = pseudo_marginal.gimh_estimate(self.importance, 0, rng)
            out[a] = samplers.run_chain(getattr(samplers, stepper), model,
                                        samplers.ChainState(y=0, u=vs0), self.len_gimh, rng)
        gen = samplers.RngStream("gmtm", self.seeds["gmtm"]).generator
        y = self.gmtm.support[0]
        counts = dict.fromkeys(self.gmtm.support, 0)
        for _ in range(self.len_gmtm):
            y = special_cases.gmtm_step(self.gmtm, y, gen)
            counts[y] += 1
        out["gmtm"] = counts
        return out

    def check(self, i, out):
        problems = []
        summary = {}
        for name in self.docs:
            problems += _scenario_problems(name, out[name], self.dirs[name])
            with open(os.path.join(self.dirs[name], "results.csv")) as fh:
                summary[name] = fh.read()
        for a in self.gimh_models:
            trace = out[a]
            ys = np.array([s.y for s in trace.states])
            freqs = np.bincount(ys, minlength=2) / ys.size
            target, asvar = self.gimh_exact[a]
            if not _within_mc_bound(freqs, target, asvar, ys.size):
                problems.append(f"GIMH {a}: y-frequencies {freqs} vs exact {target}")
            summary[a] = (ys.tobytes(), trace.accept_counts)
        counts = out["gmtm"]
        freqs = np.array([counts[s] for s in self.gmtm.support]) / self.len_gmtm
        if not _within_mc_bound(freqs, *self.gmtm_exact, self.len_gmtm):
            problems.append(f"GMTM: frequencies {freqs} vs exact {self.gmtm_exact[0]}")
        summary["gmtm"] = counts
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            problems.append("outputs differ from the first op with the same seeds")
        return problems


WORKLOADS = {w.name: w for w in (RegistryExact, ExactLarge, SimChains)}
