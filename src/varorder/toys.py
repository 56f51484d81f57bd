"""Shared toy models: the two-state counterexample kernels, the registry
augmented model, the finite GIMH/MCWM toy, and the multiple-try, r-MCMC and
ABC toys of the simulation scenarios."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import Callable

import numpy as np

from .exactify import FiniteAugmentedModel
from .kernels import (FiniteKernel, FunctionVector, ProbVector, StateSpace,
                      check_stochastic, metropolis)
from .pseudo_marginal import ABCModel, gaussian_abc_kernel
from .samplers import Proposal, choice_cdf
from .special_cases import GmtmModel, RmcmcModel


def two_state_space() -> StateSpace:
    return StateSpace([-1, 1])


def uniform_two_state() -> ProbVector:
    return ProbVector([0.5, 0.5], two_state_space())


def q0_kernel(eps: float) -> FiniteKernel:
    """Q0(eps) = eps * Pi + (1 - eps) * flip on {-1, 1}."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    stay = eps / 2.0
    return FiniteKernel([[stay, 1.0 - stay], [1.0 - stay, stay]], two_state_space())


def flip_kernel() -> FiniteKernel:
    """Deterministic sign flip x -> -x (periodic; spectral radius 1)."""
    return FiniteKernel([[0.0, 1.0], [1.0, 0.0]], two_state_space())


def identity_function() -> FunctionVector:
    return FunctionVector([-1.0, 1.0], two_state_space())


def registry_toy() -> FiniteAugmentedModel:
    """The standard finite augmented model: |Y| = 3, |U| = 2, non-constant
    weights, S depending on (y, u) and T on (y, u, yhat).

    All densities are strictly positive so every sampler in the package is
    well defined on it.
    """
    Y = StateSpace(["a", "b", "c"])
    U = StateSpace([0, 1])
    pi_star = np.array([0.5, 0.3, 0.2])
    rcheck = np.array([[0.6, 0.4],
                       [0.3, 0.7],
                       [0.5, 0.5]])
    raw_w = np.array([[1.0, 2.0],
                      [0.5, 1.5],
                      [2.0, 1.0]])
    w = raw_w / (rcheck * raw_w).sum(axis=1, keepdims=True)
    base = np.array([[0.5, 0.3, 0.2],
                     [0.2, 0.5, 0.3],
                     [0.3, 0.2, 0.5]])
    tilt = np.array([[0.4, 0.4, 0.2],
                     [0.3, 0.3, 0.4],
                     [0.2, 0.5, 0.3]])
    S = np.stack([base, tilt], axis=1)
    p = 0.3 + 0.4 * (np.indices((3, 2, 3)).sum(axis=0) % 2)  # p[y, u, yh] varies with all
    T = np.stack([p, 1.0 - p], axis=-1)
    return FiniteAugmentedModel(Y=Y, U=U, pi_star=pi_star, S=S, T=T,
                                rcheck=rcheck, w=w)


def conjugate_toy() -> FiniteAugmentedModel:
    """Variant of the registry toy in the refresh-conjugate subclass: S
    ignores u and T redraws the auxiliary from R at the proposed point.

    On this subclass the refresh and accept kernels commute, so the
    random-refreshment joint kernel satisfies detailed balance exactly (not
    only in its y-flow).  Weights stay non-constant.
    """
    g = registry_toy()
    base = np.array([[0.5, 0.3, 0.2],
                     [0.2, 0.5, 0.3],
                     [0.3, 0.2, 0.5]])
    S = np.stack([base, base], axis=1)
    T = np.tile(g.r, (3, 2, 1, 1))
    return FiniteAugmentedModel(Y=g.Y, U=g.U, pi_star=g.pi_star, S=S, T=T,
                                rcheck=g.rcheck, w=g.w)


def finite_gimh_toy(N: int = 2) -> tuple[FiniteAugmentedModel, dict]:
    """Finite GIMH model: |Y| = 2, |V| = 2, U = V^N.

    Returns the augmented model, given in the (rcheck, w) factorization so
    the same toy drives GIMH and MCWM analyses, plus a dict of the
    underlying tables.
    """
    Y = StateSpace(["y0", "y1"])
    V = ["v0", "v1"]
    # unnormalized joint pi_bar(y, v) and proposal q_y(v)
    pi_bar = np.array([[0.30, 0.10],
                       [0.15, 0.45]])
    q = np.array([[0.6, 0.4],
                  [0.5, 0.5]])
    pi_star = pi_bar.sum(axis=1)
    s_prop = np.array([[0.4, 0.6],
                       [0.7, 0.3]])  # proposal on Y, independent of u
    u_labels = list(itertools.product(range(len(V)), repeat=N))
    U = StateSpace(u_labels)
    ny, nu = 2, len(u_labels)
    rcheck = np.array([[math.prod(q[y, v] for v in u) for u in u_labels] for y in range(ny)])
    # w = the importance-sampling estimate of pi_star(y), over pi_star(y)
    w = np.array([[sum(pi_bar[y, v] / q[y, v] for v in u) / N / pi_star[y] for u in u_labels]
                  for y in range(ny)])
    S = np.tile(s_prop[:, None, :], (1, nu, 1))
    T = np.tile(rcheck, (ny, nu, 1, 1))
    model = FiniteAugmentedModel(Y=Y, U=U, pi_star=pi_star / pi_star.sum(),
                                 S=S, T=T, rcheck=rcheck, w=w)
    tables = {"pi_bar": pi_bar, "q": q, "pi_star": pi_star, "s_prop": s_prop,
              "V": V, "N": N, "u_labels": u_labels}
    return model, tables


def lazy_quadruple_draws(rng: np.random.Generator, n: int) -> tuple:
    """Raw draws of one random lazy quadruple, in stream order: target
    weights, the proposals of P1 and Q1, the laziness of P0 and Q0, and f."""
    return (rng.uniform(0.2, 1.0, size=n), rng.uniform(0.05, 1.0, size=(n, n)),
            rng.uniform(0.05, 1.0, size=(n, n)), rng.uniform(0.1, 0.9),
            rng.uniform(0.1, 0.9), rng.normal(size=n))


def lazy_quadruples(draws: list) -> tuple:
    """Covariance-ordered quadruples (P0, P1, Q0, Q1) plus (pi, f), stacked,
    one per entry of draws (from lazy_quadruple_draws, all of one size): P1
    and Q1 are Metropolis kernels for pi = w / sum(w), P0 and Q0 their a- and
    b-lazy versions.  Kernel rows and pi are checked as distributions."""
    w, KP, KQ, a, b, f = (np.array(column) for column in zip(*draws))
    pi = w / w.sum(axis=-1, keepdims=True)
    P1, Q1 = (metropolis(K / K.sum(axis=-1, keepdims=True), pi) for K in (KP, KQ))
    eye = np.eye(w.shape[-1])
    P0, Q0 = ((1.0 - c)[:, None, None] * K + c[:, None, None] * eye
              for c, K in ((a, P1), (b, Q1)))
    check_stochastic(np.stack([P0, P1, Q0, Q1]))
    if np.any(check_stochastic(pi) < 0) or not np.all(np.isfinite(f)):
        raise ValueError("pi must be nonnegative and f finite")
    return P0, P1, Q0, Q1, pi, f


def random_lazy_quadruple(rng: np.random.Generator, n: int):
    """One random covariance-ordered quadruple (P0, P1, Q0, Q1) plus (pi, f):
    the typed single member of lazy_quadruples."""
    *quad, pi, f = (x[0] for x in lazy_quadruples([lazy_quadruple_draws(rng, n)]))
    pi = ProbVector(pi)
    return (*(FiniteKernel(K, pi.space) for K in quad), pi, FunctionVector(f, pi.space))


def gmtm_toy(n: int) -> GmtmModel:
    """Multiple-try model with n tries on the support {a, b, c}."""
    support = ("a", "b", "c")
    pi_tab = {"a": 0.5, "b": 0.3, "c": 0.2}
    rk = {"a": {"a": 0.2, "b": 0.5, "c": 0.3},
          "b": {"a": 0.4, "b": 0.2, "c": 0.4},
          "c": {"a": 0.3, "b": 0.6, "c": 0.1}}
    cdf = {y: choice_cdf([rk[y][v] for v in support]) for y in support}
    return GmtmModel(
        log_pi_star=lambda y: math.log(pi_tab[y]),
        rcheck_sample=lambda gen, y: support[bisect_right(cdf[y], gen.random())],
        log_rcheck=lambda y, v: math.log(rk[y][v]),
        omega=lambda y, v: pi_tab[v] + 0.1 * (y == v),
        n=n, support=support)


def gaussian_rmcmc_model(step: float = 1.0) -> RmcmcModel:
    """Random-walk sampler for N(0, 1) written in involution form."""
    c = -0.5 * math.log(2.0 * math.pi)
    return RmcmcModel(
        log_pi_star=lambda y: -0.5 * y * y,
        rcheck_sample=lambda gen, y: y + step * gen.standard_normal(),
        log_rcheck=lambda y, yh: c - 0.5 * ((yh - y) / step) ** 2 - math.log(step),
        scheck_sample=lambda gen, y, yh: gen.standard_normal(),
        log_scheck=lambda y, yh, u: c - 0.5 * u * u,
        involution=lambda u: -u,
        log_jacobian=lambda u: 0.0)


def abc_toy(h: float) -> tuple[ABCModel, Callable, Proposal, ProbVector]:
    """Discrete ABC model with an exactly computable target."""
    ys = [-1.0, 0.0, 1.0]
    noise = [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
    offsets = [nz for nz, _ in noise]
    cdf = choice_cdf([p for _, p in noise])
    m = ABCModel(obs=0.5, kernel_K=gaussian_abc_kernel, h=h,
                 summary=lambda u: u,
                 simulator=lambda gen, y: y + offsets[bisect_right(cdf, gen.random())])
    log_prior = lambda y: 0.0
    prop = Proposal(sample=lambda gen, y: ys[gen.integers(3)],
                    log_density=lambda y, yh: -math.log(3.0))
    weights = np.array([sum(p * m.weight_value(y + nz) for nz, p in noise)
                        for y in ys])
    target = ProbVector(weights / weights.sum(), StateSpace(ys))
    return m, log_prior, prop, target
